//! The per-core synaptic memory model: a **master population table**
//! over one contiguous **synaptic arena** (CSR layout).
//!
//! §5.2/§6 of the paper: each SpiNNaker node stores its cores' synaptic
//! state as dense blocks in the shared SDRAM, and on spike arrival the
//! processor maps the source neuron's AER key to "the associated block
//! of connectivity data" and DMAs that row into local memory. The real
//! toolchain implements the mapping as a *master population table*: a
//! small sorted array of `(key, mask)` entries, one per source
//! population/core block, each pointing at a run of row descriptors in
//! SDRAM; the neuron bits of the incoming key then select the row
//! within the run.
//!
//! [`SynapticMatrix`] reproduces that layout in the simulator:
//!
//! ```text
//! entries:  [ (key, mask, first_row, n_rows) ... ]   sorted by key
//! starts:   [ 0, s1, s2, ... total ]                 CSR row pointers, n_rows + 1
//! words:    [ SynapticWord ... ]                     one packed arena
//! ```
//!
//! Lookup is a binary search over the entries plus an index into
//! `starts` — no hashing on the packet hot path — and row `r` is
//! `words[starts[r]..starts[r + 1]]`, a slice of the single `words`
//! allocation. The resident footprint is `4 bytes/synapse + 4
//! bytes/row + 16 bytes/source block` instead of a
//! `HashMap<u32, Vec<_>>` per core. STDP rewrites weights in place
//! through [`SynapticMatrix::row_mut`], exactly like the hardware's
//! DMA write-back of a modified row.
//!
//! A lazily built matrix keeps the same `starts` as its row lengths,
//! plus a recipe arena: one [`GenSpec`] per run of rows that one
//! projection feeds from consecutive sources, and `home`, where each
//! materialized row was appended to `words` (4 more bytes per row).
//!
//! A full machine's descriptors and arena are far larger than the
//! host's caches and a spike picks its row at random, so the two loads
//! of a fetch — descriptor, then words — would each wait for memory.
//! The machine knows both addresses one handler early and says so:
//! [`SynapticMatrix::hint_descriptor`] when the packet ISR starts,
//! [`SynapticMatrix::hint_row`] when the DMA does. Both take `&self`
//! and leave a compressed row compressed.
//!
//! [`SynapticMatrixBuilder`] assembles a matrix from a *stream* of
//! `(row, word)` pairs in any order (the loader expands projections one
//! at a time and never materializes a global edge list), then packs the
//! arena with a stable counting sort in `finish`. It is the only way a
//! matrix gets rows: once built, the table and the row lengths are
//! fixed — STDP rewrites weights and lazy rows materialize, but no row
//! is added, resized or moved.

use crate::gen::{GenSpec, GenState};
use crate::hint::prefetch_read;
use crate::synapse::SynapticWord;

/// Bytes of SDRAM a row of `len` synapses occupies (one header word
/// plus one word per synapse — the unit of DMA transfer).
#[inline]
pub const fn row_sdram_bytes(len: usize) -> usize {
    4 + 4 * len
}

/// Sentinel `home` offset marking a row whose words have not been
/// materialized yet (the row's recipe lives in the lazy arena). Row
/// *lengths* are always concrete — only the words are deferred.
const LAZY_OFFSET: u32 = u32::MAX;

/// Synaptic words per host cache line (64 bytes).
const LINE_WORDS: usize = 16;

/// Lines of one row the hints reach for. The five-synapse rows of the
/// paper's operating point need two at most and the benchmark's densest
/// (`plastic_stdp`, ~50 synapses) four; the cap bounds a hint's cost on
/// the rows of hundreds an all-to-all projection makes.
const HINT_LINES: usize = 8;

/// One projection's generator recipe for a contiguous run of rows fed
/// by consecutive source neurons (one or more source slices' blocks as
/// seen by one destination core).
#[derive(Clone, Debug, PartialEq)]
struct Contribution {
    /// The projection recipe (connector, distribution, target window).
    spec: GenSpec,
    /// First row this contribution covers.
    first_row: u32,
    /// Rows covered: `first_row .. first_row + n_rows`.
    n_rows: u32,
    /// Global source index of `first_row`'s source neuron; row
    /// `first_row + i` replays source `src_lo + i`.
    src_lo: u32,
    /// Per-row RNG stream positions; empty for analytic specs,
    /// otherwise exactly `n_rows` entries.
    states: Vec<GenState>,
}

/// The compressed side of a lazily-built matrix: generator recipes in
/// projection order (row regeneration replays them in this order, which
/// is exactly the eager build's push order), and where each row's words
/// live once materialized.
#[derive(Clone, Debug, Default, PartialEq)]
struct LazyArena {
    contribs: Vec<Contribution>,
    /// Per row: the arena offset its words were appended at, or
    /// `LAZY_OFFSET` while it is still a recipe. An empty row is never
    /// lazy and owns no words.
    home: Vec<u32>,
}

impl LazyArena {
    fn resident_bytes(&self) -> u64 {
        let recipes: usize = self
            .contribs
            .iter()
            .map(|c| {
                std::mem::size_of::<Contribution>()
                    + c.states.len() * std::mem::size_of::<GenState>()
            })
            .sum();
        (recipes + self.home.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// One master-population-table entry: all keys matching
/// `key` under `mask` map to rows `first_row + (key & !mask)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct MptEntry {
    /// Base key of the block (low `!mask` bits zero).
    key: u32,
    /// Ternary mask: set bits must match `key`.
    mask: u32,
    /// Index of the block's first row.
    first_row: u32,
    /// Rows in the block (the source slice's neuron count).
    n_rows: u32,
}

/// A core's complete synaptic state: master population table + packed
/// row arena.
///
/// # Example
///
/// ```
/// use spinn_neuron::synapse::SynapticWord;
/// use spinn_neuron::synmatrix::SynapticMatrixBuilder;
///
/// let mut b = SynapticMatrixBuilder::new();
/// // A 4-neuron source block whose keys are 0x1000..0x1004.
/// let first = b.block(0x1000, !0xFFF, 4);
/// b.push(first + 2, SynapticWord::new(300, 1, 7));
/// let m = b.finish();
/// let row = m.lookup(0x1002).unwrap();
/// assert_eq!(m.row(row)[0].target(), 7);
/// assert!(m.row(m.lookup(0x1003).unwrap()).is_empty());
/// assert_eq!(m.lookup(0x1004), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SynapticMatrix {
    entries: Vec<MptEntry>,
    /// CSR row pointers: `n_rows + 1` prefix sums of the row lengths
    /// (empty for a matrix with no rows). An eager row's words are
    /// `words[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    words: Vec<SynapticWord>,
    /// Generator recipes for rows still in compressed form (`None` for
    /// a fully eager matrix).
    lazy: Option<Box<LazyArena>>,
}

impl SynapticMatrix {
    /// An empty matrix (no blocks, no rows).
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps an incoming AER key to its row index: binary search of the
    /// master population table, then the key's neuron bits select the
    /// row within the matched block. `None` means no block covers the
    /// key — a mapping error the machine counts as a row miss.
    #[inline]
    pub fn lookup(&self, key: u32) -> Option<u32> {
        let i = self.entries.partition_point(|e| e.key <= key);
        let e = self.entries.get(i.checked_sub(1)?)?;
        if key & e.mask != e.key {
            return None;
        }
        let neuron = key & !e.mask;
        if neuron >= e.n_rows {
            return None;
        }
        Some(e.first_row + neuron)
    }

    /// The synapses of row `row` (a slice of the arena).
    ///
    /// # Panics
    ///
    /// Panics if the row is still in compressed (lazy) form — DMA touch
    /// points go through [`SynapticMatrix::ensure_row`] first.
    #[inline]
    pub fn row(&self, row: u32) -> &[SynapticWord] {
        let Some(span) = self.span(row) else {
            panic!("row {row} not materialized (lazy arena); call ensure_row first");
        };
        &self.words[span]
    }

    /// Mutable access to row `row` — STDP rewrites weights in place
    /// before the row is DMAed back to SDRAM.
    ///
    /// # Panics
    ///
    /// Panics on an unmaterialized row, like [`SynapticMatrix::row`].
    #[inline]
    pub fn row_mut(&mut self, row: u32) -> &mut [SynapticWord] {
        let Some(span) = self.span(row) else {
            panic!("row {row} not materialized (lazy arena); call ensure_row_mut first");
        };
        &mut self.words[span]
    }

    /// [`SynapticMatrix::row`], materializing the row first if it is
    /// still compressed — the entry point of every DMA touch.
    #[inline]
    pub fn ensure_row(&mut self, row: u32) -> &[SynapticWord] {
        let span = self.materialize(row);
        &self.words[span]
    }

    /// [`SynapticMatrix::row_mut`] with on-demand materialization.
    #[inline]
    pub fn ensure_row_mut(&mut self, row: u32) -> &mut [SynapticWord] {
        let span = self.materialize(row);
        &mut self.words[span]
    }

    /// The arena range of row `row`'s words, `None` while the row is
    /// still a recipe.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a row of the matrix.
    #[inline]
    fn span(&self, row: u32) -> Option<std::ops::Range<usize>> {
        let r = row as usize;
        let (lo, hi) = (self.starts[r], self.starts[r + 1]);
        match &self.lazy {
            None => Some(lo as usize..hi as usize),
            Some(lazy) => {
                let home = lazy.home[r];
                (home != LAZY_OFFSET).then(|| home as usize..(home + hi - lo) as usize)
            }
        }
    }

    /// Hint, when the packet ISR starts: `key`'s row descriptor (its two
    /// row pointers, and its `home` offset on a lazy matrix) will be read
    /// when the ISR completes. An unknown key asks for nothing.
    #[inline]
    pub fn hint_descriptor(&self, key: u32) {
        let Some(row) = self.lookup(key) else { return };
        let r = row as usize;
        // A row's two pointers straddle a line boundary once in 16 rows.
        for start in self.starts.get(r..r + 2).into_iter().flatten() {
            prefetch_read(start);
        }
        if let Some(home) = self.lazy.as_ref().and_then(|l| l.home.get(r)) {
            prefetch_read(home);
        }
    }

    /// Hint, when the row's DMA starts: its words will be walked when
    /// the transfer is done. Asks for [`SynapticMatrix::hinted_words`],
    /// line by line.
    #[inline]
    pub fn hint_row(&self, row: u32) {
        let words = self.hinted_words(row);
        // The run starts anywhere in a line, so its last word may lie
        // one line past the last stride.
        for w in words.iter().step_by(LINE_WORDS).chain(words.last()) {
            prefetch_read(w);
        }
    }

    /// The words the hints act on: the first `HINT_LINES` lines' worth
    /// of a row resident in the arena, nothing for an empty, unknown or
    /// still-compressed row — a hint never materializes.
    #[inline]
    pub fn hinted_words(&self, row: u32) -> &[SynapticWord] {
        if row as usize >= self.n_rows() {
            return &[];
        }
        let Some(span) = self.span(row) else {
            return &[];
        };
        let words = &self.words[span];
        &words[..words.len().min(HINT_LINES * LINE_WORDS)]
    }

    /// The row's words without mutating the matrix: a borrowed slice
    /// when materialized, a regenerated copy otherwise (inspection
    /// paths — the hot path uses [`SynapticMatrix::ensure_row`]).
    pub fn row_words(&self, row: u32) -> std::borrow::Cow<'_, [SynapticWord]> {
        match self.span(row) {
            Some(span) => std::borrow::Cow::Borrowed(&self.words[span]),
            None => std::borrow::Cow::Owned(self.generate(row)),
        }
    }

    /// Whether `row`'s words are resident in the arena.
    #[inline]
    pub fn is_row_materialized(&self, row: u32) -> bool {
        self.span(row).is_some()
    }

    /// Rows still in compressed form.
    pub fn lazy_rows(&self) -> u64 {
        self.lazy.as_ref().map_or(0, |l| {
            l.home.iter().filter(|&&h| h == LAZY_OFFSET).count() as u64
        })
    }

    /// Generator recipes the matrix holds (0 for an eager matrix): one
    /// per run of rows a projection feeds from consecutive sources.
    pub fn lazy_recipes(&self) -> usize {
        self.lazy.as_ref().map_or(0, |l| l.contribs.len())
    }

    /// Materializes every remaining lazy row (tests and full-fidelity
    /// snapshots; runs rely on touch-driven materialization instead).
    pub fn materialize_all(&mut self) {
        if self.lazy.is_none() {
            return;
        }
        for row in 0..self.n_rows() as u32 {
            self.materialize(row);
        }
    }

    /// Regenerates an unmaterialized row's words from its recipes.
    fn generate(&self, row: u32) -> Vec<SynapticWord> {
        let len = self.row_len(row);
        let lazy = self.lazy.as_ref().expect("lazy row without arena");
        let mut out = Vec::with_capacity(len);
        for c in &lazy.contribs {
            if row < c.first_row || row >= c.first_row + c.n_rows {
                continue;
            }
            let i = row - c.first_row;
            let state = (!c.states.is_empty()).then(|| &c.states[i as usize]);
            c.spec.append_row(c.src_lo + i, state, &mut out);
        }
        debug_assert_eq!(
            out.len(),
            len,
            "regenerated row {row} length diverged from the build pass"
        );
        out
    }

    /// Expands `row` into the arena if it is still compressed, and
    /// returns the arena range of its words.
    fn materialize(&mut self, row: u32) -> std::ops::Range<usize> {
        if let Some(span) = self.span(row) {
            return span;
        }
        let words = self.generate(row);
        let home = self.words.len();
        self.lazy.as_mut().expect("lazy row without arena").home[row as usize] = home as u32;
        self.words.extend_from_slice(&words);
        home..self.words.len()
    }

    /// Number of synapses in row `row`.
    #[inline]
    pub fn row_len(&self, row: u32) -> usize {
        let r = row as usize;
        (self.starts[r + 1] - self.starts[r]) as usize
    }

    /// SDRAM bytes of row `row` (header + synapses; the DMA transfer
    /// size).
    #[inline]
    pub fn row_bytes(&self, row: u32) -> usize {
        row_sdram_bytes(self.row_len(row))
    }

    /// Total number of rows (source neurons with a block on this core).
    pub fn n_rows(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Whether the matrix holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Total synapse count.
    pub fn total_synapses(&self) -> u64 {
        self.starts.last().map_or(0, |&n| u64::from(n))
    }

    /// SDRAM footprint: the summed DMA size of every row
    /// ([`row_sdram_bytes`]: a header word per row, a word per synapse).
    pub fn sdram_bytes(&self) -> u64 {
        4 * (self.n_rows() as u64 + self.total_synapses())
    }

    /// Host-resident bytes of the matrix itself (arena + descriptors +
    /// table + compressed recipes) — the "resident synapse bytes"
    /// figure of experiment E20 and the benchmark. Only *materialized*
    /// words count: a lazy matrix's untouched rows cost their recipe,
    /// not their expansion.
    pub fn resident_bytes(&self) -> u64 {
        (self.words.len() * std::mem::size_of::<SynapticWord>()
            + self.starts.len() * std::mem::size_of::<u32>()
            + self.entries.len() * std::mem::size_of::<MptEntry>()) as u64
            + self.lazy.as_ref().map_or(0, |l| l.resident_bytes())
    }

    /// Iterates `(key, row_index)` over every row of every block, keys
    /// ascending within each block.
    pub fn iter_rows(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.entries
            .iter()
            .flat_map(|e| (0..e.n_rows).map(move |i| (e.key | i, e.first_row + i)))
    }

    /// Serializes the given rows' current arena contents — the
    /// checkpoint form of STDP weight changes. Snapshots store only the
    /// rows plasticity actually touched (deltas against the loader's
    /// freshly built matrix), so an unplastic network costs zero
    /// synaptic bytes per checkpoint.
    pub fn encode_rows(&self, rows: &[u32], enc: &mut spinn_sim::wire::Enc) {
        enc.seq(rows.len());
        for &row in rows {
            enc.u32(row);
            let words = self.row(row);
            enc.seq(words.len());
            for w in words {
                enc.u32(w.bits());
            }
        }
    }

    /// Applies an [`SynapticMatrix::encode_rows`] delta onto this
    /// matrix, overwriting each row's words in place, and returns the
    /// indices of the rows it rewrote (so the caller can keep tracking
    /// them as dirty for subsequent checkpoints).
    ///
    /// The matrix must be structurally identical to the one the delta
    /// was taken from (same rows, same row lengths): STDP rewrites
    /// weights but never adds or removes synapses.
    ///
    /// # Errors
    ///
    /// Returns a [`spinn_sim::wire::WireError`] if the input is
    /// truncated, names a row this matrix does not have, or changes a
    /// row's length.
    pub fn apply_rows(
        &mut self,
        dec: &mut spinn_sim::wire::Dec<'_>,
    ) -> Result<Vec<u32>, spinn_sim::wire::WireError> {
        use spinn_sim::wire::WireError;
        let n = dec.seq(12)?;
        let mut applied = Vec::with_capacity(n);
        for _ in 0..n {
            let row = dec.u32()?;
            if row as usize >= self.n_rows() {
                return Err(WireError::Corrupt("delta row index"));
            }
            let len = dec.seq(4)?;
            if len != self.row_len(row) {
                return Err(WireError::Corrupt("delta row length"));
            }
            // A delta can land on a freshly rebuilt lazy matrix
            // (restore path): give the row arena backing first, then
            // overwrite it with the checkpointed words.
            for w in self.ensure_row_mut(row) {
                *w = SynapticWord::from_bits(dec.u32()?);
            }
            applied.push(row);
        }
        Ok(applied)
    }
}

/// Assembles a [`SynapticMatrix`] from a stream of `(row, word)`
/// pushes: declare the source blocks up front, stage synapses in any
/// order, and `finish` packs them into the contiguous arena with a
/// stable counting sort (insertion order is preserved within each row).
#[derive(Clone, Debug, Default)]
pub struct SynapticMatrixBuilder {
    entries: Vec<MptEntry>,
    n_rows: u32,
    staged: Vec<(u32, SynapticWord)>,
    lazy_contribs: Vec<Contribution>,
    lazy_lens: Vec<(u32, u32)>,
}

impl SynapticMatrixBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or re-finds) the block covering `base_key` under
    /// `mask` with `n_rows` rows, returning the block's first row
    /// index. Re-declaring an existing block (e.g. the same source
    /// slice reached through a second projection) is idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `base_key` has bits outside `mask`, if `n_rows`
    /// exceeds the mask's key span (rows lookup could never resolve),
    /// if a re-declared block changes its row count, or if the new
    /// block's key range overlaps an existing one.
    pub fn block(&mut self, base_key: u32, mask: u32, n_rows: u32) -> u32 {
        assert_eq!(base_key & !mask, 0, "block base key must be mask-aligned");
        assert!(
            n_rows as u64 <= !mask as u64 + 1,
            "block of {n_rows} rows exceeds its {}-key mask span",
            !mask as u64 + 1
        );
        let i = self.entries.partition_point(|e| e.key < base_key);
        if let Some(e) = self.entries.get(i) {
            if e.key == base_key {
                assert_eq!(
                    (e.mask, e.n_rows),
                    (mask, n_rows),
                    "block {base_key:#x} re-declared with a different shape"
                );
                return e.first_row;
            }
        }
        // Disjointness with both neighbours: a block's span is
        // `key ..= key | !mask`.
        if let Some(prev) = i.checked_sub(1).map(|p| self.entries[p]) {
            assert!(prev.key | !prev.mask < base_key, "overlapping key blocks");
        }
        if let Some(next) = self.entries.get(i) {
            assert!(base_key | !mask < next.key, "overlapping key blocks");
        }
        let first_row = self.n_rows;
        self.entries.insert(
            i,
            MptEntry {
                key: base_key,
                mask,
                first_row,
                n_rows,
            },
        );
        self.n_rows += n_rows;
        first_row
    }

    /// Stages one synapse into row `row` (a block's `first_row` plus
    /// the source neuron's index within the block).
    #[inline]
    pub fn push(&mut self, row: u32, word: SynapticWord) {
        debug_assert!(row < self.n_rows, "row {row} outside declared blocks");
        self.staged.push((row, word));
    }

    /// Registers a generator recipe covering `n_rows` rows starting at
    /// `first_row` (sources `src_lo..`), returning its handle for
    /// [`SynapticMatrixBuilder::lazy_state`]. A builder is either fully
    /// lazy or fully eager: mixing recipes and [`push`]ed words on one
    /// core is rejected in `finish` (the loader decides per core).
    ///
    /// A recipe that continues the previous one — the same spec, the
    /// rows right after its rows and the sources right after its
    /// sources — extends it instead of starting a new one: each row
    /// then replays the same source with the same spec and state, so
    /// the words are identical, and a population split over many source
    /// cores costs one recipe per destination core, not one per block.
    ///
    /// [`push`]: SynapticMatrixBuilder::push
    pub fn lazy_contribution(
        &mut self,
        first_row: u32,
        n_rows: u32,
        src_lo: u32,
        spec: GenSpec,
    ) -> usize {
        debug_assert!(
            first_row + n_rows <= self.n_rows,
            "contribution outside declared blocks"
        );
        if let Some(last) = self.lazy_contribs.last_mut() {
            if last.spec == spec
                && last.first_row + last.n_rows == first_row
                && last.src_lo + last.n_rows == src_lo
            {
                debug_assert!(
                    last.states.is_empty() || last.states.len() == last.n_rows as usize,
                    "a recipe is extended only once its own rows have their states"
                );
                last.n_rows += n_rows;
                return self.lazy_contribs.len() - 1;
            }
        }
        self.lazy_contribs.push(Contribution {
            spec,
            first_row,
            n_rows,
            src_lo,
            states: Vec::new(),
        });
        self.lazy_contribs.len() - 1
    }

    /// Appends the next row's captured RNG state to a contribution
    /// (rows in ascending order; exactly `n_rows` calls for stateful
    /// specs, none for analytic ones).
    pub fn lazy_state(&mut self, contrib: usize, state: GenState) {
        let c = &mut self.lazy_contribs[contrib];
        debug_assert!((c.states.len() as u32) < c.n_rows, "too many states");
        c.states.push(state);
    }

    /// Adds `len` lazily-generated synapses to `row`'s length (the
    /// build pass counts what the recipe will regenerate).
    #[inline]
    pub fn lazy_len(&mut self, row: u32, len: u32) {
        debug_assert!(row < self.n_rows, "row {row} outside declared blocks");
        if len > 0 {
            self.lazy_lens.push((row, len));
        }
    }

    /// Packs the staged synapses into the contiguous arena. Stable: the
    /// words of each row keep their push order. A lazy builder instead
    /// records row lengths and keeps the recipes — rows materialize on
    /// first DMA touch.
    pub fn finish(self) -> SynapticMatrix {
        let n = self.n_rows as usize;
        let lazy = !self.lazy_contribs.is_empty();
        // Each row's length lands one slot up, so that a running sum
        // turns the lengths into the CSR row pointers.
        let mut starts = vec![0u32; n + 1];
        if lazy {
            assert!(
                self.staged.is_empty(),
                "a core's builder cannot mix lazy recipes with eager words"
            );
            for &(row, len) in &self.lazy_lens {
                starts[row as usize + 1] += len;
            }
        } else {
            for &(row, _) in &self.staged {
                starts[row as usize + 1] += 1;
            }
        }
        for r in 0..n {
            starts[r + 1] += starts[r];
        }
        if lazy {
            for c in &self.lazy_contribs {
                debug_assert!(
                    c.states.is_empty() || c.states.len() == c.n_rows as usize,
                    "contribution states must cover all rows or none"
                );
            }
            let home = starts
                .windows(2)
                .map(|s| if s[0] == s[1] { 0 } else { LAZY_OFFSET })
                .collect();
            return SynapticMatrix {
                entries: self.entries,
                starts,
                words: Vec::new(),
                lazy: Some(Box::new(LazyArena {
                    contribs: self.lazy_contribs,
                    home,
                })),
            };
        }
        let mut words = vec![SynapticWord::from_bits(0); self.staged.len()];
        let mut cursor = starts[..n].to_vec();
        for (row, word) in self.staged {
            let c = &mut cursor[row as usize];
            words[*c as usize] = word;
            *c += 1;
        }
        SynapticMatrix {
            entries: self.entries,
            starts,
            words,
            lazy: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(weight: i16, target: u16) -> SynapticWord {
        SynapticWord::new(weight, 1, target)
    }

    #[test]
    fn builder_packs_csr_and_lookup_resolves() {
        let mut b = SynapticMatrixBuilder::new();
        let blk_a = b.block(0x1000, !0xFFF, 3);
        let blk_b = b.block(0x4000, !0xFFF, 2);
        // A lone exact key, declared after a block above it.
        let exact = b.block(0x3000, u32::MAX, 1);
        // Interleaved pushes across blocks; order within a row must
        // survive the counting sort.
        b.push(blk_b, w(9, 0));
        b.push(blk_a + 1, w(1, 1));
        b.push(exact, w(5, 5));
        b.push(blk_a + 1, w(2, 2));
        b.push(blk_b, w(8, 3));
        b.push(blk_a, w(7, 4));
        let m = b.finish();
        assert_eq!(m.n_rows(), 6);
        assert_eq!(m.total_synapses(), 6);
        assert_eq!(m.lookup(0x3000), Some(exact));
        assert_eq!(m.row(exact)[0].weight_raw(), 5);
        assert_eq!(m.lookup(0x3001), None);
        let r = m.lookup(0x1001).unwrap();
        assert_eq!(
            m.row(r).iter().map(|x| x.weight_raw()).collect::<Vec<_>>(),
            vec![1, 2]
        );
        let r = m.lookup(0x4000).unwrap();
        assert_eq!(
            m.row(r).iter().map(|x| x.weight_raw()).collect::<Vec<_>>(),
            vec![9, 8]
        );
        // Empty row within a declared block: present, zero-length.
        let r = m.lookup(0x1002).unwrap();
        assert!(m.row(r).is_empty());
        assert_eq!(m.row_bytes(r), 4);
        // Outside every block: a miss.
        assert_eq!(m.lookup(0x1003), None);
        assert_eq!(m.lookup(0x2000), None);
        assert_eq!(m.lookup(0x0FFF), None);
    }

    #[test]
    fn block_declaration_is_idempotent_and_checked() {
        let mut b = SynapticMatrixBuilder::new();
        let first = b.block(0x1000, !0xFFF, 4);
        assert_eq!(b.block(0x1000, !0xFFF, 4), first);
        assert_eq!(b.block(0x2000, !0xFFF, 1), 4);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn block_shape_change_rejected() {
        let mut b = SynapticMatrixBuilder::new();
        b.block(0x1000, !0xFFF, 4);
        b.block(0x1000, !0xFFF, 5);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_blocks_rejected() {
        let mut b = SynapticMatrixBuilder::new();
        b.block(0x1000, !0xFFF, 4);
        b.block(0x1800, !0x7FF, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds its")]
    fn oversized_block_rejected() {
        // 3000 rows cannot be addressed through a 2048-key mask span:
        // rows past 2047 would be unreachable and their iter_rows keys
        // would alias the next block.
        let mut b = SynapticMatrixBuilder::new();
        b.block(0, !0x7FF, 3000);
    }

    #[test]
    fn sdram_accounting_matches_row_shapes() {
        let mut b = SynapticMatrixBuilder::new();
        let blk = b.block(0, !0xFFF, 2);
        for i in 0..10 {
            b.push(blk, w(i, i as u16));
        }
        let m = b.finish();
        // Row 0: 4 + 40; row 1 empty: 4.
        assert_eq!(m.sdram_bytes(), 48);
        assert!(m.resident_bytes() >= 40);
    }

    /// An eager matrix costs its words, one 4-byte row pointer per row
    /// plus the closing one, and its table entries: nothing else.
    #[test]
    fn eager_resident_bytes_are_words_row_pointers_and_table() {
        let mut b = SynapticMatrixBuilder::new();
        let blk_a = b.block(0x1000, !0xFFF, 5);
        let blk_b = b.block(0x2000, !0xFFF, 3);
        for i in 0..7 {
            b.push(blk_a + i % 5, w(1, i as u16));
        }
        b.push(blk_b + 2, w(2, 0));
        let m = b.finish();
        let (words, rows, entries) = (8, 8, 2);
        assert_eq!((m.total_synapses(), m.n_rows()), (words, rows as usize));
        assert_eq!(
            m.resident_bytes(),
            4 * words + 4 * (rows + 1) + 16 * entries
        );
        assert_eq!(m.lazy_recipes(), 0);
        assert_eq!(SynapticMatrix::new().resident_bytes(), 0);
    }

    #[test]
    fn iter_rows_reconstructs_keys() {
        let mut b = SynapticMatrixBuilder::new();
        b.block(0x1000, !0xFFF, 2);
        b.block(0x5000, !0xFFF, 1);
        let m = b.finish();
        let keys: Vec<u32> = m.iter_rows().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0x1000, 0x1001, 0x5000]);
    }

    #[test]
    fn row_mut_rewrites_in_place() {
        let mut b = SynapticMatrixBuilder::new();
        let r = b.block(7, u32::MAX, 1);
        b.push(r, w(100, 0));
        b.push(r, w(200, 1));
        let mut m = b.finish();
        assert_eq!(m.lookup(7), Some(r));
        for word in m.row_mut(r) {
            *word = word.with_weight_raw(word.weight_raw() / 2);
        }
        assert_eq!(
            m.row(r).iter().map(|x| x.weight_raw()).collect::<Vec<_>>(),
            vec![50, 100]
        );
    }

    fn lazy_a2a_builder(n_rows: u32, window: (u32, u32)) -> SynapticMatrixBuilder {
        use crate::gen::{GenConnector, GenSpec, GenSynapses};
        let mut b = SynapticMatrixBuilder::new();
        let first = b.block(0x1000, !0xFFF, n_rows);
        let spec = GenSpec {
            conn: GenConnector::AllToAll { skip_self: false },
            syn: GenSynapses {
                weight_min_raw: 320,
                weight_max_raw: 320,
                delay_min_ms: 2,
                delay_max_ms: 2,
            },
            n_src: n_rows,
            n_dst: 16,
            dst_lo: window.0,
            dst_hi: window.1,
        };
        for row in 0..n_rows {
            let len = spec.row_len(row).unwrap();
            b.lazy_len(first + row, len);
        }
        b.lazy_contribution(first, n_rows, 0, spec);
        b
    }

    #[test]
    fn lazy_rows_materialize_on_touch() {
        let mut m = lazy_a2a_builder(4, (4, 8)).finish();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.total_synapses(), 16); // lens known without words
        assert_eq!(m.lazy_rows(), 4);
        let before = m.resident_bytes();
        let row = m.lookup(0x1002).unwrap();
        assert!(!m.is_row_materialized(row));
        let words: Vec<_> = m.ensure_row(row).to_vec();
        assert_eq!(words.len(), 4);
        assert_eq!(
            words.iter().map(|w| w.target()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(m.is_row_materialized(row));
        assert_eq!(m.lazy_rows(), 3);
        assert!(m.resident_bytes() > before, "touch grows the arena");
        // Touch again: idempotent, same slice.
        assert_eq!(m.ensure_row(row), &words[..]);
        // Non-mutating inspection of an untouched row.
        let other = m.lookup(0x1003).unwrap();
        let cow = m.row_words(other);
        assert_eq!(cow.len(), 4);
        assert!(!m.is_row_materialized(other), "row_words must not touch");
    }

    #[test]
    fn lazy_matrix_matches_eager_equivalent() {
        let mut lazy = lazy_a2a_builder(16, (0, 16)).finish();
        // The eager twin: same block, words pushed as the stream would.
        let mut b = SynapticMatrixBuilder::new();
        let first = b.block(0x1000, !0xFFF, 16);
        for row in 0..16 {
            for d in 0u32..16 {
                b.push(first + row, SynapticWord::new(320, 2, d as u16));
            }
        }
        let eager = b.finish();
        assert!(
            lazy.resident_bytes() < eager.resident_bytes(),
            "recipe ({} B) must undercut the expansion ({} B)",
            lazy.resident_bytes(),
            eager.resident_bytes()
        );
        assert_eq!(lazy.sdram_bytes(), eager.sdram_bytes());
        lazy.materialize_all();
        for row in 0..16 {
            assert_eq!(lazy.row(row), eager.row(row), "row {row}");
        }
    }

    /// Recipes for blocks that continue each other in rows *and* in
    /// sources merge into one; a break in either keeps them apart. The
    /// words are the same either way.
    #[test]
    fn contiguous_recipes_merge() {
        use crate::gen::{GenConnector, GenSpec, GenSynapses};
        let spec = GenSpec {
            conn: GenConnector::AllToAll { skip_self: true },
            syn: GenSynapses {
                weight_min_raw: 64,
                weight_max_raw: 64,
                delay_min_ms: 3,
                delay_max_ms: 3,
            },
            n_src: 12,
            n_dst: 12,
            dst_lo: 0,
            dst_hi: 12,
        };
        // Three 4-row blocks whose sources start at `src_los`.
        let build = |src_los: [u32; 3]| {
            let mut b = SynapticMatrixBuilder::new();
            for (i, &src_lo) in src_los.iter().enumerate() {
                let first = b.block(0x1000 * (i as u32 + 1), !0xFFF, 4);
                for r in 0..4 {
                    b.lazy_len(first + r, spec.row_len(src_lo + r).unwrap());
                }
                b.lazy_contribution(first, 4, src_lo, spec.clone());
            }
            b.finish()
        };
        for (src_los, recipes) in [([0, 4, 8], 1), ([0, 4, 0], 2), ([8, 4, 0], 3)] {
            let mut m = build(src_los);
            assert_eq!(m.lazy_recipes(), recipes, "{src_los:?}");
            for (blk, &src_lo) in src_los.iter().enumerate() {
                for r in 0..4 {
                    let row = m.ensure_row(blk as u32 * 4 + r).to_vec();
                    let mut want = Vec::new();
                    spec.append_row(src_lo + r, None, &mut want);
                    assert_eq!(row, want, "{src_los:?} block {blk} row {r}");
                }
            }
        }
    }

    #[test]
    fn lazy_rows_survive_stdp_delta_roundtrip() {
        let mut m = lazy_a2a_builder(3, (0, 5)).finish();
        // STDP-style in-place rewrite through the ensure path.
        let row = m.lookup(0x1001).unwrap();
        for w in m.ensure_row_mut(row) {
            *w = w.with_weight_raw(99);
        }
        let mut enc = spinn_sim::wire::Enc::new();
        m.encode_rows(&[row], &mut enc);
        let bytes = enc.into_bytes();
        // Restore onto a *fresh, unmaterialized* twin: apply_rows must
        // materialize the target row before overwriting it.
        let mut fresh = lazy_a2a_builder(3, (0, 5)).finish();
        assert_eq!(fresh.lazy_rows(), 3);
        let mut dec = spinn_sim::wire::Dec::new(&bytes);
        let applied = fresh.apply_rows(&mut dec).unwrap();
        assert_eq!(applied, vec![row]);
        assert!(fresh.row(row).iter().all(|w| w.weight_raw() == 99));
        // Untouched rows still lazy, still regenerate identically.
        fresh.materialize_all();
        m.materialize_all();
        for r in 0..3 {
            assert_eq!(fresh.row(r), m.row(r), "row {r}");
        }
    }

    /// Every hint for `key` and for `row`, then: nothing about the
    /// matrix has moved. Returns what the hints acted on.
    fn hinted(m: &SynapticMatrix, key: u32, row: u32) -> Vec<SynapticWord> {
        let before = m.clone();
        let (lazy, resident) = (m.lazy_rows(), m.resident_bytes());
        m.hint_descriptor(key);
        m.hint_row(row);
        let words = m.hinted_words(row).to_vec();
        assert_eq!((m.lazy_rows(), m.resident_bytes()), (lazy, resident));
        assert_eq!(*m, before);
        words
    }

    #[test]
    fn hints_are_inert_on_every_row_shape() {
        let mut b = SynapticMatrixBuilder::new();
        let blk = b.block(0x1000, !0xFFF, 4);
        // Row 0 runs past the line cap, row 1 is empty, row 3 ends the
        // arena.
        let long = (HINT_LINES * LINE_WORDS + 40) as u16;
        for t in 0..long {
            b.push(blk, w(1, t));
        }
        b.push(blk + 2, w(2, 0));
        for t in 0..5 {
            b.push(blk + 3, w(3, t));
        }
        let m = b.finish();
        let capped = hinted(&m, 0x1000, blk);
        assert_eq!(capped, m.row(blk)[..HINT_LINES * LINE_WORDS]);
        assert!(hinted(&m, 0x1001, blk + 1).is_empty());
        assert_eq!(hinted(&m, 0x1003, blk + 3), m.row(blk + 3));
        // A key no block covers, a row index past the table.
        for (key, row) in [(0x1004, 4), (0x0FFF, u32::MAX), (0x9000, 5)] {
            assert_eq!(m.lookup(key), None);
            assert!(hinted(&m, key, row).is_empty());
        }
        assert!(hinted(&SynapticMatrix::new(), 0, 0).is_empty());
    }

    #[test]
    fn a_hint_never_materializes() {
        let mut m = lazy_a2a_builder(4, (4, 8)).finish();
        for row in 0..4 {
            assert!(hinted(&m, 0x1000 + row, row).is_empty());
        }
        assert_eq!(m.lazy_rows(), 4);
        // Once walked, a row is hinted like any other; its neighbours
        // stay recipes.
        let walked = m.ensure_row(2).to_vec();
        assert_eq!(hinted(&m, 0x1002, 2), walked);
        assert!(hinted(&m, 0x1003, 3).is_empty());
        assert_eq!(m.lazy_rows(), 3);
    }

    #[test]
    #[should_panic(expected = "not materialized")]
    fn immutable_row_access_rejects_lazy_rows() {
        let m = lazy_a2a_builder(2, (0, 4)).finish();
        let _ = m.row(0);
    }
}
