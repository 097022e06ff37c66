//! The compiled predictor: a [`ConjunctiveMapping`] flattened into the
//! `PALMED-MODEL v2b` CSR byte layout — owned ([`CompiledModel`]) or
//! borrowed straight from artifact bytes ([`CompiledModelRef`]).
//!
//! [`ConjunctiveMapping`] stores usage rows in a `BTreeMap` keyed by
//! [`InstId`] — ideal while the inference pipeline is still inserting and
//! removing rows, but every prediction then pays one tree lookup per distinct
//! instruction plus a dense sweep over all resources (zeros included).
//! [`CompiledModel`] freezes the mapping into a CSR-style arena: a dense
//! `row_ptr` table indexed by instruction, one flat `(resource, usage)` slice
//! per instruction with zero entries dropped, and resource indices kept
//! dense.  Prediction walks flat arrays and writes into a caller-provided
//! scratch buffer — no allocation, no pointer chasing.
//!
//! The arena is kept exactly as a v2b artifact lays it out: one flag byte
//! per instruction slot, then little-endian `u32` row pointers, `u32` column
//! indices and `f64` bit patterns, all read bytewise — so any buffer backs
//! it, at any alignment, on any endianness.  [`CompiledModelRef`] is that
//! arena *without the copies*: a validate-once view whose slices alias the
//! artifact bytes.  Both serve through [`KernelLoad`],
//! the allocation-free interface the batch engine is generic over, and both
//! run the one CSR hot loop.
//!
//! The arithmetic performs the same additions in the same order as the
//! `BTreeMap` path (kernels iterate in instruction order in both, and
//! skipping an exact `+ 0.0` cannot change a finite non-negative
//! accumulator), so compiled predictions — owned and borrowed alike — are
//! **bit-identical** to [`ConjunctiveMapping::ipc`] — asserted by the
//! round-trip property tests.

use crate::artifact::ArtifactError;
use palmed_core::{ConjunctiveMapping, ResourceId, ThroughputPredictor};
use palmed_isa::{InstId, Microkernel};
use std::cell::RefCell;

thread_local! {
    /// Reusable load buffer for the borrow-free [`ThroughputPredictor`]
    /// entry points (shared with the disjunctive family in [`crate::disj`]),
    /// so trait-object consumers (e.g. the evaluation campaign) stay
    /// allocation-free per call like the scratch-based API.
    pub(crate) static LOAD_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

#[inline]
fn le_u32(word: &[u8]) -> u32 {
    u32::from_le_bytes(word.try_into().expect("4 bytes per u32"))
}

#[inline]
fn le_f64(word: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(word.try_into().expect("8 bytes per f64")))
}

/// The CSR arena in the v2b byte layout, borrowed from whichever model owns
/// or aliases it.  Invariants (pinned by [`CompiledModel::compile`] or the
/// v2b validator): `row_ptr` holds `mapped.len() + 1` monotone entries from
/// 0 to `nnz`, `cols`/`vals` hold `nnz` entries, columns ascend within a
/// row and index below `num_resources`, and unmapped slots have empty rows.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Csr<'a> {
    num_resources: usize,
    /// Per-slot "has a row" flags, one byte each (0 or 1).
    mapped: &'a [u8],
    /// Row boundaries, little-endian `u32`.
    row_ptr: &'a [u8],
    /// Resource index of every non-zero entry, little-endian `u32`.
    cols: &'a [u8],
    /// Usage value of every non-zero entry, little-endian `f64` bits.
    vals: &'a [u8],
}

impl<'a> Csr<'a> {
    /// The entry range of slot `index`, empty past the slot table.
    #[inline]
    fn range(&self, index: usize) -> std::ops::Range<usize> {
        if index < self.mapped.len() {
            le_u32(&self.row_ptr[4 * index..4 * index + 4]) as usize
                ..le_u32(&self.row_ptr[4 * index + 4..4 * index + 8]) as usize
        } else {
            0..0
        }
    }

    fn row(self, inst: InstId) -> impl Iterator<Item = (u32, f64)> + 'a {
        let range = self.range(inst.index());
        let cols = self.cols[4 * range.start..4 * range.end].chunks_exact(4);
        let vals = self.vals[8 * range.start..8 * range.end].chunks_exact(8);
        cols.zip(vals).map(|(col, val)| (le_u32(col), le_f64(val)))
    }

    /// The hot loop: one `count × usage` accumulation per stored entry of
    /// every instruction in the kernel.
    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.num_resources, 0.0);
        for &(inst, count) in kernel.as_slice() {
            let range = self.range(inst.index());
            let count = count as f64;
            let cols = self.cols[4 * range.start..4 * range.end].chunks_exact(4);
            let vals = self.vals[8 * range.start..8 * range.end].chunks_exact(8);
            for (col, val) in cols.zip(vals) {
                scratch[le_u32(col) as usize] += count * le_f64(val);
            }
        }
    }

    fn supports(&self, inst: InstId) -> bool {
        self.mapped.get(inst.index()).is_some_and(|&m| m != 0)
    }

    fn num_instructions(&self) -> usize {
        self.mapped.iter().filter(|&&m| m != 0).count()
    }

    fn num_entries(&self) -> usize {
        self.cols.len() / 4
    }
}

/// A conjunctive mapping compiled into flat arrays for allocation-free
/// prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    name: String,
    resource_names: Vec<String>,
    /// Whether the instruction at a given index has a row (an all-zero row
    /// still counts as mapped, exactly like the `BTreeMap` representation).
    mapped: Vec<u8>,
    row_ptr: Vec<u8>,
    cols: Vec<u8>,
    vals: Vec<u8>,
}

impl CompiledModel {
    /// Flattens `mapping` into its compiled form under a display name.
    pub fn compile(name: impl Into<String>, mapping: &ConjunctiveMapping) -> Self {
        let num_rows = mapping.instructions().last().map_or(0, |i| i.index() + 1);
        let mut mapped = vec![0u8; num_rows];
        let mut row_ptr = Vec::with_capacity(4 * (num_rows + 1));
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.extend_from_slice(&0u32.to_le_bytes());
        for (index, has_row) in mapped.iter_mut().enumerate() {
            if let Some(usage) = mapping.usage_vector(InstId(index as u32)) {
                *has_row = 1;
                for (r, &value) in usage.iter().enumerate() {
                    if value != 0.0 {
                        cols.extend_from_slice(&(r as u32).to_le_bytes());
                        vals.extend_from_slice(&value.to_bits().to_le_bytes());
                    }
                }
            }
            row_ptr.extend_from_slice(&((cols.len() / 4) as u32).to_le_bytes());
        }
        CompiledModel {
            name: name.into(),
            resource_names: mapping.resources().map(|r| mapping.resource_name(r).to_string()).collect(),
            mapped,
            row_ptr,
            cols,
            vals,
        }
    }

    fn csr(&self) -> Csr<'_> {
        Csr {
            num_resources: self.resource_names.len(),
            mapped: &self.mapped,
            row_ptr: &self.row_ptr,
            cols: &self.cols,
            vals: &self.vals,
        }
    }

    /// The arena's v2b sections `(mapped, row_ptr, cols, vals)`, for
    /// verbatim binary serialisation.
    pub(crate) fn raw_parts(&self) -> (&[u8], &[u8], &[u8], &[u8]) {
        (&self.mapped, &self.row_ptr, &self.cols, &self.vals)
    }

    /// Number of abstract resources.
    pub fn num_resources(&self) -> usize {
        self.resource_names.len()
    }

    /// Number of mapped instructions.
    pub fn num_instructions(&self) -> usize {
        self.csr().num_instructions()
    }

    /// Number of non-zero `(instruction, resource)` usage entries.
    pub fn num_entries(&self) -> usize {
        self.csr().num_entries()
    }

    /// Name of a resource.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resource_names[r.index()]
    }

    /// Sparse usage row of an instruction: `(resource index, usage)` pairs in
    /// ascending resource order.  Empty for unmapped instructions.
    pub fn row(&self, inst: InstId) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.csr().row(inst)
    }
}

impl ThroughputPredictor for CompiledModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, inst: InstId) -> bool {
        self.csr().supports(inst)
    }

    /// Trait-object entry point, backed by a thread-local scratch buffer so
    /// it stays allocation-free per call.  Explicit hot paths should still
    /// prefer [`KernelLoad::ipc_with`] or a [`BatchPredictor`] (see
    /// [`crate::batch`]).
    ///
    /// [`BatchPredictor`]: crate::BatchPredictor
    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
        LOAD_SCRATCH.with_borrow_mut(|scratch| self.ipc_with(kernel, scratch))
    }
}

/// The allocation-free CSR serving interface, shared by the owned
/// [`CompiledModel`], the borrowed [`CompiledModelRef`] and the disjunctive
/// [`CompiledDisjModel`](crate::CompiledDisjModel).  The batch engine
/// ([`BatchPredictor`](crate::BatchPredictor)) is generic over it, so the
/// whole post-inference data plane serves every model through one code
/// path.
///
/// The provided combinators reproduce the exact arithmetic of
/// [`ConjunctiveMapping::ipc`] and friends, so any implementor whose
/// [`load_into`](KernelLoad::load_into) accumulates the same additions in
/// the same order predicts bit-identically.
pub trait KernelLoad {
    /// Number of abstract resources (the scratch width).
    fn num_resources(&self) -> usize;

    /// Writes the per-resource load of one kernel iteration into `scratch`
    /// (cleared and resized as needed).  Allocation-free once the buffer has
    /// the right capacity.
    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>);

    /// A scratch buffer sized for this model, for the `_with` entry points.
    fn scratch(&self) -> Vec<f64> {
        vec![0.0; self.num_resources()]
    }

    /// Execution time `t(K)` of one loop iteration (Def. IV.2).
    fn execution_time_with(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) -> f64 {
        self.load_into(kernel, scratch);
        scratch.iter().copied().fold(0.0, f64::max)
    }

    /// Throughput (IPC) of a microkernel (Def. IV.3), bit-identical to
    /// [`ConjunctiveMapping::ipc`].
    fn ipc_with(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) -> Option<f64> {
        let t = self.execution_time_with(kernel, scratch);
        if t <= 0.0 {
            None
        } else {
            Some(kernel.total_instructions() as f64 / t)
        }
    }

    /// The resource that bottlenecks `kernel`, together with its load.
    fn bottleneck_with(
        &self,
        kernel: &Microkernel,
        scratch: &mut Vec<f64>,
    ) -> Option<(ResourceId, f64)> {
        self.load_into(kernel, scratch);
        let (idx, &max) = scratch
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))?;
        if max > 0.0 {
            Some((ResourceId(idx as u32), max))
        } else {
            None
        }
    }

    /// The model's determinism fingerprint over the pinned probe corpus for
    /// `num_slots` instruction slots (use the artifact's instruction-set
    /// length).  Any two implementors that predict bit-identically — owned,
    /// borrowed, migrated — fingerprint identically; see
    /// [`model_fingerprint`](crate::fingerprint::model_fingerprint).
    fn fingerprint(&self, num_slots: usize) -> u64 {
        crate::fingerprint::model_fingerprint(self, num_slots)
    }
}

impl KernelLoad for CompiledModel {
    fn num_resources(&self) -> usize {
        self.resource_names.len()
    }

    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) {
        self.csr().load_into(kernel, scratch)
    }
}

impl<M: KernelLoad + ?Sized> KernelLoad for &M {
    fn num_resources(&self) -> usize {
        (**self).num_resources()
    }

    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) {
        (**self).load_into(kernel, scratch)
    }
}

/// A compiled model borrowed straight from validated `PALMED-MODEL v2b`
/// artifact bytes — the zero-copy serving form.
///
/// The arena is [`CompiledModel`]'s, byte for byte, but nothing is copied:
/// the CSR sections alias the buffer and names borrow its UTF-8.  The
/// buffer may sit at any address.  Construction goes through
/// [`CompiledModelRef::parse_v2`] (standalone buffers) or a registry entry
/// that retains the bytes
/// ([`ServingModel::view`](crate::ServingModel::view)); both validate
/// exactly once — checksum, structure, value ranges — so every accessor
/// here is panic-free on the ranges the validator pinned.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModelRef<'a> {
    name: &'a str,
    resource_names: Vec<&'a str>,
    csr: Csr<'a>,
}

impl<'a> CompiledModelRef<'a> {
    /// Assembles a view from already-validated v2b sections.
    pub(crate) fn from_parts(
        name: &'a str,
        resource_names: Vec<&'a str>,
        mapped: &'a [u8],
        row_ptr: &'a [u8],
        cols: &'a [u8],
        vals: &'a [u8],
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), 4 * (mapped.len() + 1));
        debug_assert_eq!(vals.len(), 2 * cols.len());
        let csr = Csr { num_resources: resource_names.len(), mapped, row_ptr, cols, vals };
        CompiledModelRef { name, resource_names, csr }
    }

    /// Validates a `PALMED-MODEL v2b` buffer and borrows its compiled model
    /// in place, wherever the buffer sits in memory.  Corruption, truncation
    /// and structural violations are rejected exactly like
    /// [`ModelArtifact::parse_v2`](crate::ModelArtifact::parse_v2) — the
    /// two share one validator.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] on any layout violation, truncation or
    /// checksum mismatch; never panics on untrusted input.
    pub fn parse_v2(bytes: &'a [u8]) -> Result<Self, ArtifactError> {
        Ok(crate::binfmt::validate(bytes)?.index.view(bytes))
    }

    /// Display name of the model (the machine token).
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Number of mapped instructions.
    pub fn num_instructions(&self) -> usize {
        self.csr.num_instructions()
    }

    /// Number of non-zero `(instruction, resource)` usage entries.
    pub fn num_entries(&self) -> usize {
        self.csr.num_entries()
    }

    /// Name of a resource.
    pub fn resource_name(&self, r: ResourceId) -> &'a str {
        self.resource_names[r.index()]
    }

    /// Sparse usage row of an instruction: `(resource index, usage)` pairs in
    /// ascending resource order.  Empty for unmapped instructions.
    pub fn row(&self, inst: InstId) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.csr.row(inst)
    }
}

impl KernelLoad for CompiledModelRef<'_> {
    fn num_resources(&self) -> usize {
        self.resource_names.len()
    }

    fn load_into(&self, kernel: &Microkernel, scratch: &mut Vec<f64>) {
        self.csr.load_into(kernel, scratch)
    }
}

impl ThroughputPredictor for CompiledModelRef<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn supports(&self, inst: InstId) -> bool {
        self.csr.supports(inst)
    }

    /// Trait-object entry point, backed by the same thread-local scratch
    /// buffer as the owned model, so it stays allocation-free per call.
    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
        LOAD_SCRATCH.with_borrow_mut(|scratch| self.ipc_with(kernel, scratch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> (ConjunctiveMapping, InstId, InstId) {
        let mut m = ConjunctiveMapping::new(vec!["r1".into(), "r01".into(), "r016".into()]);
        let addss = InstId(0);
        let bsr = InstId(3);
        m.set_usage(addss, vec![0.0, 0.5, 1.0 / 3.0]);
        m.set_usage(bsr, vec![1.0, 0.5, 1.0 / 3.0]);
        (m, addss, bsr)
    }

    #[test]
    fn compile_builds_sparse_rows() {
        let (m, addss, bsr) = example();
        let c = CompiledModel::compile("palmed", &m);
        assert_eq!(c.num_resources(), 3);
        assert_eq!(c.num_instructions(), 2);
        // ADDSS has a zero on r1 that the CSR drops; BSR keeps all three.
        assert_eq!(c.num_entries(), 5);
        assert_eq!(c.row(addss).collect::<Vec<_>>(), vec![(1, 0.5), (2, 1.0 / 3.0)]);
        assert_eq!(c.row(bsr).count(), 3);
        assert_eq!(c.row(InstId(1)).count(), 0);
        assert_eq!(c.row(InstId(99)).count(), 0);
    }

    #[test]
    fn predictions_are_bit_identical_to_the_mapping() {
        let (m, addss, bsr) = example();
        let c = CompiledModel::compile("palmed", &m);
        let mut scratch = c.scratch();
        let kernels = [
            Microkernel::pair(addss, 2, bsr, 1),
            Microkernel::pair(addss, 1, bsr, 2),
            Microkernel::single(addss).scaled(7),
            Microkernel::pair(addss, 3, InstId(42), 5),
            Microkernel::single(InstId(42)),
            Microkernel::new(),
        ];
        for k in &kernels {
            let reference = m.ipc(k);
            let compiled = c.ipc_with(k, &mut scratch);
            assert_eq!(reference.map(f64::to_bits), compiled.map(f64::to_bits), "kernel {k}");
            assert_eq!(
                m.execution_time(k).to_bits(),
                c.execution_time_with(k, &mut scratch).to_bits()
            );
            assert_eq!(m.bottleneck(k), c.bottleneck_with(k, &mut scratch));
        }
    }

    #[test]
    fn supports_matches_the_mapping_even_for_zero_rows() {
        let mut m = ConjunctiveMapping::with_resources(2);
        m.set_usage(InstId(1), vec![0.0, 0.0]);
        let c = CompiledModel::compile("palmed", &m);
        assert!(!c.supports(InstId(0)));
        assert!(c.supports(InstId(1)));
        assert!(!c.supports(InstId(2)));
        assert_eq!(m.supports(InstId(1)), c.supports(InstId(1)));
    }

    #[test]
    fn trait_path_agrees_with_scratch_path() {
        let (m, addss, bsr) = example();
        let c = CompiledModel::compile("served", &m);
        assert_eq!(c.name(), "served");
        let k = Microkernel::pair(addss, 2, bsr, 1);
        let mut scratch = c.scratch();
        assert_eq!(
            c.predict_ipc(&k).map(f64::to_bits),
            c.ipc_with(&k, &mut scratch).map(f64::to_bits)
        );
        let _ = m;
    }

    #[test]
    fn empty_mapping_compiles() {
        let m = ConjunctiveMapping::with_resources(0);
        let c = CompiledModel::compile("empty", &m);
        assert_eq!(c.num_resources(), 0);
        assert_eq!(c.num_instructions(), 0);
        assert_eq!(c.predict_ipc(&Microkernel::single(InstId(0))), None);
    }
}
