//! Compressed sparse row (CSR) read-optimized backend.
//!
//! [`CsrGraph`] is a read-optimized layout: adjacency is compiled into
//! **type-segmented CSR arrays** — one segment per (vertex type, edge label)
//! pair, so `expand(v, :REL)` reads one contiguous byte slice instead of
//! filtering a per-vertex edge list — and properties live in **typed
//! columns**, one per (vertex type, property name), with a present-bitmap
//! for rows that lack the property. Neighbour ids inside a segment are
//! **delta-encoded and varint-compressed** (zigzag, because neighbour lists
//! keep insertion order rather than sorted order, so deltas can be
//! negative).
//!
//! # Mutability model
//!
//! The backend accepts the same `add_vertex` / `add_edge` mutations as every
//! other [`GraphBackend`] — property columns are maintained eagerly (they
//! *are* the authoritative vertex store), while the CSR adjacency segments
//! are compiled lazily: any mutation invalidates the compiled index and the
//! next adjacency read rebuilds it ([`CsrGraph::freeze`] compiles up front,
//! so a frozen graph's first read pays nothing). Reads are therefore always consistent and the type
//! stays a drop-in replacement everywhere a backend is expected (vertex ids
//! are dense and sequential).
//!
//! # Equivalence contract
//!
//! Query answers are bit-identical to [`crate::MemoryGraph`] over the same
//! update sequence: neighbour lists come back in edge-insertion order (out
//! *and* in direction), label scans in vertex-insertion order, and property
//! maps round-trip exactly. [`CsrGraph::freeze`] compiles any backend that
//! can replay itself ([`GraphBackend::export_updates`]) into this layout.

use crate::backend::{
    apply_updates, AccessStats, EdgeId, GraphBackend, GraphUpdate, StatsCounters, VertexData,
    VertexId,
};
use crate::memory::Interner;
use crate::value::{PropertyMap, PropertyValue};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

// ---- varint / zigzag --------------------------------------------------------

/// Zigzag-maps a signed delta to an unsigned value with small magnitudes
/// staying small (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`).
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as a LEB128 varint (7 payload bits per byte, high bit =
/// continuation).
#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint starting at `pos`, advancing `pos` past it.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

// ---- typed property columns -------------------------------------------------

/// Typed backing store of one column. A column adopts the type of the first
/// value written to it; a later value of a different type promotes the
/// column to `Mixed` (per-row enum storage, the correctness fallback).
/// Fixed-width types are stored unboxed; `Str` and `List` rows are stored as
/// the `PropertyValue` a read lends out, so reading one copies nothing.
#[derive(Debug, Clone)]
enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<PropertyValue>),
    List(Vec<PropertyValue>),
    Mixed(Vec<PropertyValue>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::List(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Appends a default-valued (absent) slot.
    fn push_absent(&mut self) {
        match self {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(PropertyValue::Str(String::new())),
            ColumnData::List(v) => v.push(PropertyValue::List(Vec::new())),
            ColumnData::Mixed(v) => v.push(PropertyValue::Null),
        }
    }

    /// Converts every slot to `PropertyValue` (promotion to `Mixed`).
    fn into_mixed(self) -> Vec<PropertyValue> {
        match self {
            ColumnData::Bool(v) => v.into_iter().map(PropertyValue::Bool).collect(),
            ColumnData::Int(v) => v.into_iter().map(PropertyValue::Int).collect(),
            ColumnData::Float(v) => v.into_iter().map(PropertyValue::Float).collect(),
            ColumnData::Str(v) | ColumnData::List(v) | ColumnData::Mixed(v) => v,
        }
    }

    /// Whether `value` fits this column's type without promotion.
    fn accepts(&self, value: &PropertyValue) -> bool {
        matches!(
            (self, value),
            (ColumnData::Bool(_), PropertyValue::Bool(_))
                | (ColumnData::Int(_), PropertyValue::Int(_))
                | (ColumnData::Float(_), PropertyValue::Float(_))
                | (ColumnData::Str(_), PropertyValue::Str(_))
                | (ColumnData::List(_), PropertyValue::List(_))
                | (ColumnData::Mixed(_), _)
        )
    }

    fn for_value(value: &PropertyValue) -> ColumnData {
        match value {
            PropertyValue::Bool(_) => ColumnData::Bool(Vec::new()),
            PropertyValue::Int(_) => ColumnData::Int(Vec::new()),
            PropertyValue::Float(_) => ColumnData::Float(Vec::new()),
            PropertyValue::Str(_) => ColumnData::Str(Vec::new()),
            PropertyValue::List(_) => ColumnData::List(Vec::new()),
            PropertyValue::Null => ColumnData::Mixed(Vec::new()),
        }
    }

    /// Appends `value`; the caller guarantees [`ColumnData::accepts`].
    fn push(&mut self, value: PropertyValue) {
        match (self, value) {
            (ColumnData::Bool(v), PropertyValue::Bool(x)) => v.push(x),
            (ColumnData::Int(v), PropertyValue::Int(x)) => v.push(x),
            (ColumnData::Float(v), PropertyValue::Float(x)) => v.push(x),
            (ColumnData::Str(v), x @ PropertyValue::Str(_)) => v.push(x),
            (ColumnData::List(v), x @ PropertyValue::List(_)) => v.push(x),
            (ColumnData::Mixed(v), x) => v.push(x),
            _ => unreachable!("push after accepts() check"),
        }
    }

    /// Lends row `r` to `f` as a `PropertyValue` (fixed-width rows are
    /// rebuilt on the stack, the others borrowed from the column).
    fn with<R>(&self, r: usize, f: impl FnOnce(&PropertyValue) -> R) -> R {
        match self {
            ColumnData::Bool(v) => f(&PropertyValue::Bool(v[r])),
            ColumnData::Int(v) => f(&PropertyValue::Int(v[r])),
            ColumnData::Float(v) => f(&PropertyValue::Float(v[r])),
            ColumnData::Str(v) | ColumnData::List(v) | ColumnData::Mixed(v) => f(&v[r]),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            ColumnData::Bool(_) => "bool",
            ColumnData::Int(_) => "int",
            ColumnData::Float(_) => "float",
            ColumnData::Str(_) => "str",
            ColumnData::List(_) => "list",
            ColumnData::Mixed(_) => "mixed",
        }
    }
}

/// One (vertex type, property name) column: typed values plus a
/// present-bitmap distinguishing stored values from absent properties
/// (absent rows hold a type default and never surface in reads). Rows past
/// the column's length are implicitly absent, so sparse properties cost no
/// per-vertex backfill.
#[derive(Debug, Clone)]
struct Column {
    data: ColumnData,
    /// Bit `r` set ⇔ row `r` has this property.
    present: Vec<u64>,
    /// Approximate bytes of stored values (same accounting as
    /// `PropertyValue::approximate_size`).
    value_bytes: u64,
}

impl Column {
    fn new(first: &PropertyValue) -> Self {
        Column { data: ColumnData::for_value(first), present: Vec::new(), value_bytes: 0 }
    }

    fn is_present(&self, r: usize) -> bool {
        self.present.get(r / 64).is_some_and(|word| word >> (r % 64) & 1 == 1)
    }

    fn mark_present(&mut self, r: usize) {
        let word = r / 64;
        if word >= self.present.len() {
            self.present.resize(word + 1, 0);
        }
        self.present[word] |= 1 << (r % 64);
    }

    /// Appends absent slots until the column is `row` long, then stores
    /// `value` at `row` (promoting to `Mixed` on a type mismatch).
    fn set(&mut self, row: usize, value: PropertyValue) {
        while self.data.len() < row {
            self.data.push_absent();
        }
        if !self.data.accepts(&value) {
            let mixed = std::mem::replace(&mut self.data, ColumnData::Mixed(Vec::new()));
            self.data = ColumnData::Mixed(mixed.into_mixed());
        }
        self.value_bytes += value.approximate_size() as u64;
        self.data.push(value);
        self.mark_present(row);
    }

    /// Lends the value at `row` to `f`, or `None` when absent.
    fn with<R>(&self, row: usize, f: impl FnOnce(Option<&PropertyValue>) -> R) -> R {
        if row < self.data.len() && self.is_present(row) {
            self.data.with(row, |value| f(Some(value)))
        } else {
            f(None)
        }
    }

    /// Approximate resident bytes: values + present bitmap.
    fn resident_bytes(&self) -> u64 {
        self.value_bytes + (self.present.len() * 8) as u64
    }
}

// ---- compiled CSR adjacency -------------------------------------------------

/// One (vertex type, edge label, direction) adjacency segment in CSR form.
/// Row `r` (the dense per-type index of a vertex) owns the packed bytes
/// `packed[byte_offsets[r] .. byte_offsets[r+1]]`, holding
/// `offsets[r+1] - offsets[r]` zigzag-delta varint neighbour ids in edge
/// insertion order.
#[derive(Debug)]
struct CsrSegment {
    /// `rows + 1` prefix sums of neighbour counts — `out_degree` is one
    /// subtraction.
    offsets: Vec<u32>,
    /// `rows + 1` prefix sums into `packed`.
    byte_offsets: Vec<u32>,
    /// Delta/varint-compressed neighbour ids, all rows back to back.
    packed: Vec<u8>,
}

impl CsrSegment {
    fn degree(&self, row: usize) -> usize {
        (self.offsets[row + 1] - self.offsets[row]) as usize
    }

    /// Decodes row `row` in place, handing each neighbour id to `f`.
    fn for_each(&self, row: usize, f: &mut dyn FnMut(VertexId)) {
        let mut pos = self.byte_offsets[row] as usize;
        let mut prev = 0i64;
        for _ in 0..self.degree(row) {
            prev += unzigzag(read_varint(&self.packed, &mut pos));
            f(VertexId(prev as u64));
        }
    }

    fn resident_bytes(&self) -> u64 {
        (self.packed.len() + (self.offsets.len() + self.byte_offsets.len()) * 4) as u64
    }
}

/// Build/compile statistics of the most recent CSR compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CsrBuildStats {
    /// Wall-clock nanoseconds the compilation took.
    pub compile_nanos: u64,
    /// Number of (vertex type, edge label) segments, out + in direction.
    pub segments: usize,
    /// Total bytes of delta/varint-packed neighbour ids.
    pub packed_bytes: u64,
    /// Total bytes of CSR offset tables.
    pub offset_bytes: u64,
    /// Edges encoded (each edge appears once per direction).
    pub edges: usize,
}

/// The immutable compiled adjacency index: out- and in-segments keyed by
/// (vertex-type id, edge-label id).
#[derive(Debug)]
struct Compiled {
    out: HashMap<(u32, u32), CsrSegment>,
    inc: HashMap<(u32, u32), CsrSegment>,
    stats: CsrBuildStats,
}

impl Compiled {
    fn resident_bytes(&self) -> u64 {
        self.out.values().chain(self.inc.values()).map(CsrSegment::resident_bytes).sum()
    }
}

// ---- mutable state ----------------------------------------------------------

/// A vertex is its type plus its dense row within that type.
#[derive(Debug, Clone, Copy)]
struct VertexRec {
    label: u32,
    row: u32,
}

#[derive(Debug, Clone, Copy)]
struct EdgeRec {
    label: u32,
    src: VertexId,
    dst: VertexId,
}

/// Compressed-sparse-row read-optimized backend; see the module docs.
#[derive(Debug, Default)]
pub struct CsrGraph {
    vlabels: Interner,
    elabels: Interner,
    /// Global vertex id → (type, row).
    vertices: Vec<VertexRec>,
    /// Per vertex type: row → global id (doubles as the label index;
    /// insertion order == id order because ids are dense and sequential).
    rows: Vec<Vec<VertexId>>,
    /// Per vertex type: property name → typed column.
    columns: Vec<std::collections::BTreeMap<String, Column>>,
    /// Edges in insertion order (the compilation input and export source).
    edges: Vec<EdgeRec>,
    payload_bytes: u64,
    counters: StatsCounters,
    /// Lazily compiled adjacency; `None` after any mutation.
    compiled: RwLock<Option<Arc<Compiled>>>,
}

impl CsrGraph {
    /// Creates an empty CSR graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `source` into a fresh, fully compiled CSR graph. The source
    /// must be able to replay itself ([`GraphBackend::export_updates`]) —
    /// that is what preserves edge-insertion order, which per-vertex reads
    /// cannot reconstruct (in-neighbour lists interleave across sources).
    ///
    /// # Panics
    /// Panics when `source` cannot export its update sequence (a backend
    /// keeping the trait's default [`GraphBackend::export_updates`]); wrap
    /// construction in `pgso_persist::JournaledGraph` or replay the journal
    /// manually.
    pub fn freeze<B: GraphBackend + ?Sized>(source: &B) -> CsrGraph {
        let updates = source.export_updates().unwrap_or_else(|| {
            panic!(
                "CsrGraph::freeze: backend `{}` cannot export its update sequence; \
                 replay its construction journal into CsrGraph::new() instead",
                source.backend_name()
            )
        });
        let mut graph = CsrGraph::new();
        apply_updates(&mut graph, &updates);
        graph.segments();
        graph
    }

    /// Statistics of the current compiled adjacency index, compiling it
    /// first if a mutation invalidated it.
    pub fn build_stats(&self) -> CsrBuildStats {
        self.segments().stats
    }

    /// Per-column description (`vertex_type.property: type, rows, bytes`),
    /// sorted; a debugging/example aid for the columnar layout.
    pub fn column_summary(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for (label_id, cols) in self.columns.iter().enumerate() {
            for (name, col) in cols {
                rows.push(format!(
                    "{}.{name}: {} ({} rows, {} bytes)",
                    self.vlabels.names[label_id],
                    col.data.type_name(),
                    col.data.len(),
                    col.resident_bytes()
                ));
            }
        }
        rows.sort();
        rows
    }

    /// The compiled adjacency, building it on first use after a mutation.
    /// Double-checked: the read lock is the serving fast path (one atomic +
    /// `Arc` clone); compilation happens at most once per invalidation.
    fn segments(&self) -> Arc<Compiled> {
        if let Some(compiled) = self.compiled.read().as_ref() {
            return compiled.clone();
        }
        let mut slot = self.compiled.write();
        if let Some(compiled) = slot.as_ref() {
            return compiled.clone();
        }
        let compiled = Arc::new(self.compile());
        *slot = Some(compiled.clone());
        compiled
    }

    /// Two-pass counting-sort compilation of both adjacency directions into
    /// type-segmented delta/varint CSR arrays. Edge-insertion order is
    /// preserved per row (the pass is stable), which is the bit-exactness
    /// contract with [`crate::MemoryGraph`].
    #[allow(clippy::type_complexity)]
    fn compile(&self) -> Compiled {
        let started = Instant::now();
        let mut stats = CsrBuildStats { edges: self.edges.len(), ..CsrBuildStats::default() };
        let build = |endpoint_of: &dyn Fn(&EdgeRec) -> VertexId,
                     neighbour_of: &dyn Fn(&EdgeRec) -> VertexId|
         -> HashMap<(u32, u32), CsrSegment> {
            // Pass 1: per-segment per-row degrees.
            let mut degrees: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
            for edge in &self.edges {
                let rec = self.vertices[endpoint_of(edge).0 as usize];
                let counts = degrees
                    .entry((rec.label, edge.label))
                    .or_insert_with(|| vec![0u32; self.rows[rec.label as usize].len()]);
                counts[rec.row as usize] += 1;
            }
            // Prefix sums + per-row write cursors.
            let mut segments: HashMap<(u32, u32), (Vec<u32>, Vec<u64>, Vec<u32>)> = degrees
                .into_iter()
                .map(|(key, counts)| {
                    let mut offsets = Vec::with_capacity(counts.len() + 1);
                    let mut total = 0u32;
                    offsets.push(0);
                    for &c in &counts {
                        total += c;
                        offsets.push(total);
                    }
                    let cursors = offsets[..counts.len()].to_vec();
                    (key, (offsets, vec![0u64; total as usize], cursors))
                })
                .collect();
            // Pass 2: place neighbour ids, stable in edge-insertion order.
            for edge in &self.edges {
                let rec = self.vertices[endpoint_of(edge).0 as usize];
                let (_, values, cursors) =
                    segments.get_mut(&(rec.label, edge.label)).expect("counted in pass 1");
                let at = &mut cursors[rec.row as usize];
                values[*at as usize] = neighbour_of(edge).0;
                *at += 1;
            }
            // Pack rows as zigzag deltas.
            segments
                .into_iter()
                .map(|(key, (offsets, values, _))| {
                    let rows = offsets.len() - 1;
                    let mut packed = Vec::with_capacity(values.len() * 2);
                    let mut byte_offsets = Vec::with_capacity(rows + 1);
                    byte_offsets.push(0);
                    for row in 0..rows {
                        let mut prev = 0i64;
                        for &id in &values[offsets[row] as usize..offsets[row + 1] as usize] {
                            write_varint(&mut packed, zigzag(id as i64 - prev));
                            prev = id as i64;
                        }
                        assert!(packed.len() < u32::MAX as usize, "CSR segment exceeds 4 GiB");
                        byte_offsets.push(packed.len() as u32);
                    }
                    (key, CsrSegment { offsets, byte_offsets, packed })
                })
                .collect()
        };
        let out = build(&|e| e.src, &|e| e.dst);
        let inc = build(&|e| e.dst, &|e| e.src);
        for segment in out.values().chain(inc.values()) {
            stats.segments += 1;
            stats.packed_bytes += segment.packed.len() as u64;
            stats.offset_bytes += ((segment.offsets.len() + segment.byte_offsets.len()) * 4) as u64;
        }
        stats.compile_nanos = started.elapsed().as_nanos() as u64;
        Compiled { out, inc, stats }
    }

    /// Uncharged property-map reconstruction of one vertex (export path).
    fn materialise_properties(&self, rec: VertexRec) -> PropertyMap {
        let mut map = PropertyMap::new();
        for (name, col) in &self.columns[rec.label as usize] {
            if let Some(value) = col.with(rec.row as usize, |value| value.cloned()) {
                map.insert(name.clone(), value);
            }
        }
        map
    }

    /// Visits one adjacency row of `vertex`, charging its whole degree. The
    /// compiled index is held by `Arc`, not by lock, while `f` runs.
    fn walk(&self, vertex: VertexId, edge_label: &str, out: bool, f: &mut dyn FnMut(VertexId)) {
        let Some(&rec) = self.vertices.get(vertex.0 as usize) else { return };
        let Some(elabel) = self.elabels.get(edge_label) else { return };
        let compiled = self.segments();
        let side = if out { &compiled.out } else { &compiled.inc };
        if let Some(segment) = side.get(&(rec.label, elabel)) {
            self.counters.count_edge_traversals(segment.degree(rec.row as usize) as u64);
            segment.for_each(rec.row as usize, f);
        }
    }
}

impl GraphBackend for CsrGraph {
    fn add_vertex(&mut self, label: &str, properties: PropertyMap) -> VertexId {
        let id = VertexId(self.vertices.len() as u64);
        let label_id = self.vlabels.intern(label);
        if label_id as usize == self.rows.len() {
            self.rows.push(Vec::new());
            self.columns.push(std::collections::BTreeMap::new());
        }
        let row = self.rows[label_id as usize].len() as u32;
        self.rows[label_id as usize].push(id);
        self.vertices.push(VertexRec { label: label_id, row });
        for (name, value) in properties {
            self.payload_bytes += value.approximate_size() as u64;
            // The first value stored adopts the column's type; later
            // mismatches promote to `Mixed` inside `set`.
            match self.columns[label_id as usize].entry(name) {
                std::collections::btree_map::Entry::Occupied(mut entry) => {
                    entry.get_mut().set(row as usize, value);
                }
                std::collections::btree_map::Entry::Vacant(entry) => {
                    entry.insert(Column::new(&value)).set(row as usize, value);
                }
            }
        }
        *self.compiled.get_mut() = None;
        id
    }

    fn add_edge(&mut self, label: &str, src: VertexId, dst: VertexId) -> EdgeId {
        assert!((src.0 as usize) < self.vertices.len(), "unknown source vertex {src:?}");
        assert!((dst.0 as usize) < self.vertices.len(), "unknown destination vertex {dst:?}");
        let id = EdgeId(self.edges.len() as u64);
        self.edges.push(EdgeRec { label: self.elabels.intern(label), src, dst });
        *self.compiled.get_mut() = None;
        id
    }

    fn vertex(&self, id: VertexId) -> Option<VertexData> {
        let &rec = self.vertices.get(id.0 as usize)?;
        self.counters.count_vertex_read();
        Some(VertexData {
            id,
            label: self.vlabels.names[rec.label as usize].clone(),
            properties: self.materialise_properties(rec),
        })
    }

    fn has_label(&self, id: VertexId, label: &str) -> bool {
        let Some(rec) = self.vertices.get(id.0 as usize) else { return false };
        self.counters.count_vertex_read();
        self.vlabels.names[rec.label as usize] == label
    }

    fn with_property(&self, id: VertexId, name: &str, f: &mut dyn FnMut(Option<&PropertyValue>)) {
        let Some(rec) = self.vertices.get(id.0 as usize) else { return f(None) };
        self.counters.count_vertex_read();
        match self.columns[rec.label as usize].get(name) {
            Some(column) => column.with(rec.row as usize, f),
            None => f(None),
        }
    }

    fn for_each_with_label(&self, label: &str, f: &mut dyn FnMut(VertexId)) {
        if let Some(id) = self.vlabels.get(label) {
            self.rows[id as usize].iter().for_each(|&vertex| f(vertex));
        }
    }

    fn labels(&self) -> Vec<String> {
        let mut labels = self.vlabels.names.clone();
        labels.sort();
        labels
    }

    fn for_each_out(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.walk(vertex, edge_label, true, f)
    }

    fn for_each_in(&self, vertex: VertexId, edge_label: &str, f: &mut dyn FnMut(VertexId)) {
        self.walk(vertex, edge_label, false, f)
    }

    fn out_degree(&self, vertex: VertexId, edge_label: &str) -> usize {
        // One offset subtraction on the compiled index — O(1), nothing
        // decoded, nothing charged (this is cardinality estimation).
        let Some(&rec) = self.vertices.get(vertex.0 as usize) else { return 0 };
        let Some(elabel) = self.elabels.get(edge_label) else { return 0 };
        match self.segments().out.get(&(rec.label, elabel)) {
            Some(segment) => segment.degree(rec.row as usize),
            None => 0,
        }
    }

    fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    fn stats(&self) -> AccessStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset()
    }

    fn backend_name(&self) -> &'static str {
        "csr"
    }

    fn export_updates(&self) -> Option<Vec<GraphUpdate>> {
        let mut updates = Vec::with_capacity(self.vertices.len() + self.edges.len());
        for &rec in &self.vertices {
            updates.push(GraphUpdate::AddVertex {
                label: self.vlabels.names[rec.label as usize].clone(),
                properties: self.materialise_properties(rec),
            });
        }
        for edge in &self.edges {
            updates.push(GraphUpdate::AddEdge {
                label: self.elabels.names[edge.label as usize].clone(),
                src: edge.src,
                dst: edge.dst,
            });
        }
        Some(updates)
    }

    fn resident_bytes(&self) -> u64 {
        let structural = (self.vertices.len() * std::mem::size_of::<VertexRec>()
            + self.edges.len() * std::mem::size_of::<EdgeRec>()
            + self.rows.iter().map(|r| r.len() * 8).sum::<usize>()) as u64;
        let columns: u64 =
            self.columns.iter().flat_map(|cols| cols.values()).map(Column::resident_bytes).sum();
        structural + columns + self.segments().resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryGraph;
    use crate::value::props;
    use proptest::prelude::*;

    fn sample_updates() -> Vec<GraphUpdate> {
        vec![
            GraphUpdate::AddVertex {
                label: "Drug".into(),
                properties: props([("name", "Aspirin".into()), ("doses", PropertyValue::Int(3))]),
            },
            GraphUpdate::AddVertex {
                label: "Indication".into(),
                properties: props([("desc", "Fever".into())]),
            },
            GraphUpdate::AddVertex {
                label: "Indication".into(),
                properties: props([("desc", "Headache".into()), ("severity", 2i64.into())]),
            },
            GraphUpdate::AddVertex { label: "Drug".into(), properties: PropertyMap::new() },
            GraphUpdate::AddEdge { label: "treat".into(), src: VertexId(0), dst: VertexId(1) },
            GraphUpdate::AddEdge { label: "treat".into(), src: VertexId(0), dst: VertexId(2) },
            GraphUpdate::AddEdge { label: "cause".into(), src: VertexId(0), dst: VertexId(2) },
            GraphUpdate::AddEdge { label: "treat".into(), src: VertexId(3), dst: VertexId(1) },
        ]
    }

    fn pair() -> (MemoryGraph, CsrGraph) {
        let mut memory = MemoryGraph::new();
        let mut csr = CsrGraph::new();
        apply_updates(&mut memory, &sample_updates());
        apply_updates(&mut csr, &sample_updates());
        (memory, csr)
    }

    #[test]
    fn read_surface_matches_memory() {
        let (memory, csr) = pair();
        assert_eq!(csr.vertex_count(), memory.vertex_count());
        assert_eq!(csr.edge_count(), memory.edge_count());
        assert_eq!(csr.labels(), memory.labels());
        assert_eq!(csr.payload_bytes(), memory.payload_bytes());
        for label in memory.labels() {
            assert_eq!(csr.vertices_with_label(&label), memory.vertices_with_label(&label));
        }
        for id in 0..memory.vertex_count() as u64 {
            let id = VertexId(id);
            assert_eq!(csr.vertex(id), memory.vertex(id));
            assert_eq!(csr.label_of(id), memory.label_of(id));
            for name in ["name", "desc", "severity", "doses", "missing"] {
                assert_eq!(csr.property_of(id, name), memory.property_of(id, name), "{name}");
            }
            for elabel in ["treat", "cause", "missing"] {
                assert_eq!(
                    csr.out_neighbours(id, elabel),
                    memory.out_neighbours(id, elabel),
                    "out {id:?} {elabel}"
                );
                assert_eq!(
                    csr.in_neighbours(id, elabel),
                    memory.in_neighbours(id, elabel),
                    "in {id:?} {elabel}"
                );
                assert_eq!(csr.out_degree(id, elabel), memory.out_degree(id, elabel));
            }
        }
        // Charging parity: the same reads cost the same counters.
        assert_eq!(csr.stats(), memory.stats());
    }

    #[test]
    fn out_degree_is_o1_and_uncharged() {
        let (_, csr) = pair();
        csr.segments();
        csr.reset_stats();
        assert_eq!(csr.out_degree(VertexId(0), "treat"), 2);
        assert_eq!(csr.out_degree(VertexId(0), "cause"), 1);
        assert_eq!(csr.out_degree(VertexId(1), "treat"), 0);
        assert_eq!(csr.out_degree(VertexId(99), "treat"), 0);
        assert_eq!(csr.stats(), AccessStats::default(), "estimation must not be charged");
    }

    #[test]
    fn mutation_invalidates_and_recompiles() {
        let (_, mut csr) = pair();
        assert_eq!(csr.out_neighbours(VertexId(0), "treat"), vec![VertexId(1), VertexId(2)]);
        let v = csr.add_vertex("Indication", props([("desc", "Nausea".into())]));
        csr.add_edge("treat", VertexId(0), v);
        // The new edge is visible (the stale index was dropped) and keeps
        // insertion order.
        assert_eq!(csr.out_neighbours(VertexId(0), "treat"), vec![VertexId(1), VertexId(2), v]);
        assert_eq!(csr.in_neighbours(v, "treat"), vec![VertexId(0)]);
    }

    #[test]
    fn freeze_compiles_memory_and_roundtrips() {
        let (memory, _) = pair();
        let frozen = CsrGraph::freeze(&memory);
        assert_eq!(frozen.vertex_count(), memory.vertex_count());
        assert_eq!(frozen.export_updates(), memory.export_updates());
        let stats = frozen.build_stats();
        assert!(stats.segments > 0);
        assert!(stats.packed_bytes > 0);
        assert_eq!(stats.edges, memory.edge_count());
        assert!(frozen.resident_bytes() > 0);
    }

    /// An empty, read-only backend that keeps the trait's default
    /// `export_updates`, so it cannot replay itself.
    struct NoReplay;

    impl GraphBackend for NoReplay {
        fn add_vertex(&mut self, _: &str, _: PropertyMap) -> VertexId {
            unreachable!("read-only")
        }

        fn add_edge(&mut self, _: &str, _: VertexId, _: VertexId) -> EdgeId {
            unreachable!("read-only")
        }

        fn vertex(&self, _: VertexId) -> Option<VertexData> {
            None
        }

        fn has_label(&self, _: VertexId, _: &str) -> bool {
            false
        }

        fn with_property(&self, _: VertexId, _: &str, f: &mut dyn FnMut(Option<&PropertyValue>)) {
            f(None)
        }

        fn for_each_with_label(&self, _: &str, _: &mut dyn FnMut(VertexId)) {}

        fn for_each_out(&self, _: VertexId, _: &str, _: &mut dyn FnMut(VertexId)) {}

        fn for_each_in(&self, _: VertexId, _: &str, _: &mut dyn FnMut(VertexId)) {}

        fn labels(&self) -> Vec<String> {
            Vec::new()
        }

        fn vertex_count(&self) -> usize {
            0
        }

        fn edge_count(&self) -> usize {
            0
        }

        fn payload_bytes(&self) -> u64 {
            0
        }

        fn stats(&self) -> AccessStats {
            AccessStats::default()
        }

        fn reset_stats(&self) {}

        fn backend_name(&self) -> &'static str {
            "no-replay"
        }
    }

    #[test]
    #[should_panic(expected = "cannot export its update sequence")]
    fn freeze_rejects_backends_without_replay() {
        let _ = CsrGraph::freeze(&NoReplay);
    }

    #[test]
    fn mixed_type_columns_promote_without_loss() {
        let mut csr = CsrGraph::new();
        let a = csr.add_vertex("T", props([("x", PropertyValue::Int(1))]));
        let b = csr.add_vertex("T", props([("x", "two".into())]));
        let c = csr.add_vertex("T", PropertyMap::new());
        assert_eq!(csr.property_of(a, "x"), Some(PropertyValue::Int(1)));
        assert_eq!(csr.property_of(b, "x"), Some(PropertyValue::str("two")));
        assert_eq!(csr.property_of(c, "x"), None);
        assert!(csr.column_summary().iter().any(|s| s.contains("mixed")));
    }

    #[test]
    fn sparse_columns_report_absent_not_default() {
        let mut csr = CsrGraph::new();
        let a = csr.add_vertex("T", PropertyMap::new());
        let b = csr.add_vertex("T", props([("n", PropertyValue::Int(0))]));
        // Row a never stored `n`: the default-valued slot must not leak.
        assert_eq!(csr.property_of(a, "n"), None);
        assert_eq!(csr.property_of(b, "n"), Some(PropertyValue::Int(0)));
        assert_eq!(csr.vertex(a).unwrap().properties, PropertyMap::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn varint_zigzag_roundtrips(values in proptest::collection::vec(-2_000_000_000i64..2_000_000_000, 0..40)) {
            let mut packed = Vec::new();
            for &v in &values {
                write_varint(&mut packed, zigzag(v));
            }
            let mut pos = 0;
            let decoded: Vec<i64> =
                (0..values.len()).map(|_| unzigzag(read_varint(&packed, &mut pos))).collect();
            prop_assert_eq!(decoded, values);
            prop_assert_eq!(pos, packed.len());
        }

        #[test]
        fn random_graphs_match_memory(
            vertex_labels in proptest::collection::vec(0u32..4, 1..24),
            edge_specs in proptest::collection::vec((0usize..24, 0usize..24, 0u32..3), 0..60),
        ) {
            let mut memory = MemoryGraph::new();
            let mut csr = CsrGraph::new();
            for (i, &label) in vertex_labels.iter().enumerate() {
                let properties = props([
                    ("n", PropertyValue::Int(i as i64)),
                    ("tag", format!("v{}", i % 3).into()),
                ]);
                memory.add_vertex(&format!("L{label}"), properties.clone());
                csr.add_vertex(&format!("L{label}"), properties);
            }
            let n = vertex_labels.len();
            for &(src, dst, elabel) in &edge_specs {
                let (src, dst) = (VertexId((src % n) as u64), VertexId((dst % n) as u64));
                memory.add_edge(&format!("r{elabel}"), src, dst);
                csr.add_edge(&format!("r{elabel}"), src, dst);
            }
            for id in 0..n as u64 {
                let id = VertexId(id);
                prop_assert_eq!(csr.vertex(id), memory.vertex(id));
                for e in 0..3u32 {
                    let elabel = format!("r{e}");
                    prop_assert_eq!(
                        csr.out_neighbours(id, &elabel),
                        memory.out_neighbours(id, &elabel)
                    );
                    prop_assert_eq!(
                        csr.in_neighbours(id, &elabel),
                        memory.in_neighbours(id, &elabel)
                    );
                    prop_assert_eq!(csr.out_degree(id, &elabel), memory.out_degree(id, &elabel));
                }
            }
            prop_assert_eq!(csr.stats(), memory.stats());
            // And the canonical replay round-trips through freeze.
            let frozen = CsrGraph::freeze(&csr);
            prop_assert_eq!(frozen.export_updates(), memory.export_updates());
        }
    }
}
