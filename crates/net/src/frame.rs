//! Length-delimited frame layer underneath the message codec.
//!
//! Every message travels as one frame:
//!
//! ```text
//! frame  := len(u32 le) opcode(u8) payload(len-1 bytes)
//! ```
//!
//! `len` counts the opcode byte plus the payload, so the smallest legal
//! frame is `len = 1` (an opcode with no payload) and `len = 0` is
//! malformed. The length prefix is what makes pipelining safe: a reader
//! always knows where the next message starts, whatever is inside the
//! payload.
//!
//! [`FrameReader`] is an incremental reassembler for the receive side: feed
//! it whatever byte chunks the socket produced — frames torn across reads,
//! many frames in one read — and it yields complete `(opcode, payload)`
//! frames in order. It never panics on foreign bytes; pathological length
//! prefixes surface as [`FrameError`]s so the connection layer can reject
//! the peer without trusting a single byte of the claim.

use pgso_graphstore::codec::{put_u32, Reader};
use std::fmt;

/// Default cap on `len` (opcode + payload). A peer claiming a larger frame
/// is refused before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of the frame header (the little-endian length prefix).
pub const FRAME_HEADER_LEN: usize = 4;

/// A framing violation. These are connection-fatal: the byte stream can no
/// longer be trusted to contain frame boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the configured cap.
    Oversized {
        /// Claimed frame length.
        claimed: u32,
        /// The cap it violated.
        max: u32,
    },
    /// The length prefix was zero — a frame must carry at least an opcode.
    Empty,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { claimed, max } => {
                write!(f, "frame length {claimed} exceeds the {max}-byte cap")
            }
            FrameError::Empty => write!(f, "zero-length frame (no opcode)"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one `opcode + payload` frame, length prefix included, to `out`.
pub fn write_frame(out: &mut Vec<u8>, opcode: u8, payload: &[u8]) {
    put_u32(out, payload.len() as u32 + 1);
    out.push(opcode);
    out.extend_from_slice(payload);
}

/// Incremental frame reassembler: buffers raw socket bytes and yields
/// complete frames.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`, compacted opportunistically.
    pos: usize,
    max_len: u32,
}

impl FrameReader {
    /// A reader enforcing the given frame-length cap.
    pub fn new(max_len: u32) -> Self {
        Self { buf: Vec::new(), pos: 0, max_len }
    }

    /// Feeds raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Yields the next complete frame, `Ok(None)` when more bytes are
    /// needed, or a [`FrameError`] when the length prefix is illegal (after
    /// which the stream must be abandoned — no resynchronization is
    /// attempted).
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
        let available = &self.buf[self.pos..];
        let Ok(len) = Reader::new(available).u32() else {
            self.compact();
            return Ok(None);
        };
        if len == 0 {
            return Err(FrameError::Empty);
        }
        if len > self.max_len {
            return Err(FrameError::Oversized { claimed: len, max: self.max_len });
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if available.len() < total {
            self.compact();
            return Ok(None);
        }
        let opcode = available[FRAME_HEADER_LEN];
        let payload = available[FRAME_HEADER_LEN + 1..total].to_vec();
        self.pos += total;
        self.compact();
        Ok(Some((opcode, payload)))
    }

    /// Drops the consumed prefix once it dominates the buffer, keeping the
    /// reassembly buffer bounded by the live tail.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_reassemble_across_arbitrary_chunking() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"hello");
        write_frame(&mut wire, 9, b"");
        write_frame(&mut wire, 1, &[0u8; 300]);
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let mut frames = Vec::new();
        for chunk in wire.chunks(3) {
            reader.extend(chunk);
            while let Some(frame) = reader.next_frame().expect("legal frames") {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], (7, b"hello".to_vec()));
        assert_eq!(frames[1], (9, Vec::new()));
        assert_eq!(frames[2].0, 1);
        assert_eq!(frames[2].1.len(), 300);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected_without_allocation() {
        let mut reader = FrameReader::new(1024);
        reader.extend(&u32::to_le_bytes(1025));
        assert_eq!(reader.next_frame(), Err(FrameError::Oversized { claimed: 1025, max: 1024 }));

        let mut reader = FrameReader::new(1024);
        reader.extend(&u32::to_le_bytes(0));
        assert_eq!(reader.next_frame(), Err(FrameError::Empty));
    }

    #[test]
    fn torn_header_waits_for_more_bytes() {
        let mut reader = FrameReader::new(1024);
        reader.extend(&[5, 0]);
        assert_eq!(reader.next_frame(), Ok(None));
        reader.extend(&[0, 0, 42, 1, 2, 3, 4]);
        assert_eq!(reader.next_frame(), Ok(Some((42, vec![1, 2, 3, 4]))));
    }
}
