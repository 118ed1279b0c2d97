//! Multiply-rotate hashing (FxHash) for tables keyed by ids the process
//! computes itself — vertex ids, schema labels, concept ids. SipHash's
//! resistance to chosen keys buys nothing there, and such tables are hashed
//! per entity, per edge or per binding. A table keyed by values a client
//! supplies keeps std's keyed hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash state: one word, mixed by rotate, xor and multiply. Every
/// method is `#[inline]`: tables in other crates hash through it, and a call
/// per hashed word would cost more than the hashing.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.add(u64::from_le_bytes(tail));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` of [`FxHasher`], for `HashMap::default()` and friends.
pub type FxBuild = BuildHasherDefault<FxHasher>;
