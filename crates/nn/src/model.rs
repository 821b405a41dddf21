//! The decoder-only transformer language model.

use crate::attention::MultiHeadAttention;
use crate::block::{Attend, TransformerBlock};
use crate::embedding::Embedding;
use crate::layernorm::LayerNorm;
use crate::linear::DigitalLinear;
use crate::param::Param;
use crate::softmax::cross_entropy;
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

/// Which of the six analog-mappable linears of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinearKind {
    /// Attention query projection.
    Q,
    /// Attention key projection.
    K,
    /// Attention value projection.
    V,
    /// Attention output projection.
    Out,
    /// FFN up-projection.
    Fc1,
    /// FFN down-projection.
    Fc2,
}

impl LinearKind {
    /// All six kinds, in forward order.
    pub const ALL: [LinearKind; 6] = [
        LinearKind::Q,
        LinearKind::K,
        LinearKind::V,
        LinearKind::Out,
        LinearKind::Fc1,
        LinearKind::Fc2,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LinearKind::Q => "q",
            LinearKind::K => "k",
            LinearKind::V => "v",
            LinearKind::Out => "out",
            LinearKind::Fc1 => "fc1",
            LinearKind::Fc2 => "fc2",
        }
    }
}

/// Identifies one analog-mappable linear in the model: block index + kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinearId {
    /// Block (layer) index.
    pub block: usize,
    /// Which linear within the block.
    pub kind: LinearKind,
}

impl LinearId {
    /// Convenience constructor.
    pub fn new(block: usize, kind: LinearKind) -> Self {
        Self { block, kind }
    }
}

/// Hyper-parameters of a [`TransformerLm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length.
    pub max_seq: usize,
    /// Model (embedding) dimension.
    pub d_model: usize,
    /// Number of attention heads (must divide `d_model`).
    pub heads: usize,
    /// FFN hidden width.
    pub d_ff: usize,
    /// Number of decoder blocks.
    pub layers: usize,
}

impl ModelConfig {
    /// A minimal config for fast unit tests.
    pub fn tiny_for_tests() -> Self {
        Self {
            vocab: 16,
            max_seq: 16,
            d_model: 16,
            heads: 2,
            d_ff: 32,
            layers: 1,
        }
    }

    /// Total parameter count of a model with this config.
    pub fn param_count(&self) -> usize {
        let d = self.d_model;
        let per_block = 4 * (d * d + d) + 2 * (d * self.d_ff) + self.d_ff + d + 4 * d;
        self.vocab * d
            + self.max_seq * d
            + self.layers * per_block
            + 2 * d
            + d * self.vocab
            + self.vocab
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.vocab < 2 {
            return Err("vocab must be at least 2".into());
        }
        if self.heads == 0 || !self.d_model.is_multiple_of(self.heads) {
            return Err("heads must divide d_model".into());
        }
        if self.max_seq == 0 || self.d_model == 0 || self.d_ff == 0 || self.layers == 0 {
            return Err("all dimensions must be positive".into());
        }
        Ok(())
    }
}

/// Per-block key/value cache for incremental (token-by-token) decoding.
///
/// Avoids re-running attention over the whole context at every generated
/// token: each decoded token appends one projected K/V row per block and
/// attends only from its own query. Every decode call runs the model's one
/// inference pass over a set of rows: [`TransformerLm::decode_rows`]
/// appends the rows of several tokens at once, and
/// [`TransformerLm::decode_step`] and the keyed analog step
/// [`crate::deploy::AnalogTransformerLm::decode_step_keyed`] are that pass
/// over one row.
///
/// Storage is a **fixed-capacity ring buffer**: the `capacity × d_model`
/// K/V matrices are allocated once at construction, appends are `O(1)`
/// row writes (no reallocation per token), and appending to a *full*
/// cache evicts the oldest position instead of panicking. Eviction keeps
/// each surviving row's original projection (including the positional
/// phase it was computed at — new tokens past capacity are embedded at
/// the final position); callers that need the exact truncation semantics
/// of [`crate::generate::generate_digital`] rebase via [`KvCache::reset`]
/// instead, as [`crate::generate::generate_digital_cached`] does.
#[derive(Debug, Clone)]
pub struct KvCache {
    /// `(keys, values)` per block, each `capacity × d_model` preallocated.
    blocks: Vec<(Matrix, Matrix)>,
    /// Completed (advanced) positions currently cached, `≤ capacity`.
    len: usize,
    /// Physical row of logical position 0.
    start: usize,
    /// Ring capacity (the sliding-window length), `≤ max_seq`.
    capacity: usize,
    /// Total positions evicted by ring wrap-around since construction.
    evicted: u64,
}

impl KvCache {
    /// An empty cache for `model`, windowed at the model's `max_seq`.
    pub fn new(model: &TransformerLm) -> Self {
        Self::with_capacity(model, model.config().max_seq)
    }

    /// An empty cache holding at most `capacity` positions (a sliding
    /// window shorter than the model's `max_seq`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds the model's `max_seq`
    /// (positions past `max_seq` have no positional embedding).
    pub fn with_capacity(model: &TransformerLm, capacity: usize) -> Self {
        assert!(
            capacity >= 1 && capacity <= model.config().max_seq,
            "kv capacity must be in 1..=max_seq ({}), got {capacity}",
            model.config().max_seq
        );
        let d = model.config().d_model;
        Self {
            blocks: (0..model.config().layers)
                .map(|_| (Matrix::zeros(capacity, d), Matrix::zeros(capacity, d)))
                .collect(),
            len: 0,
            start: 0,
            capacity,
            evicted: 0,
        }
    }

    /// Number of tokens currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of cached positions (the sliding-window length).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether another token fits without evicting the oldest position.
    pub fn has_capacity(&self) -> bool {
        self.len < self.capacity
    }

    /// Total positions evicted by ring wrap-around since the last reset.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Clears the cache in place (storage is retained). Used to rebase a
    /// sliding window onto a fresh context.
    pub fn reset(&mut self) {
        self.len = 0;
        self.start = 0;
        self.evicted = 0;
    }

    /// Position index (row of the positional-embedding table) at which the
    /// *next* appended token executes. Saturates at `capacity − 1` once the
    /// window is full: evicted history cannot shift the surviving rows'
    /// phases, so new tokens keep decoding at the final position.
    pub fn next_position(&self) -> usize {
        self.len.min(self.capacity - 1)
    }

    /// Ring view of one block's `(keys, values)` in logical (oldest-first)
    /// order: the cached positions followed by the first `new` rows written
    /// past them by [`KvCache::write_rows`]. Past capacity the window
    /// slides, so the oldest positions drop out of the view.
    pub(crate) fn view_rows(&self, b: usize, new: usize) -> (KvView<'_>, KvView<'_>) {
        let total = self.len + new;
        let (start, len) = if total <= self.capacity {
            (self.start, total)
        } else {
            // The newest rows overwrote the oldest ones in place.
            (
                (self.start + total - self.capacity) % self.capacity,
                self.capacity,
            )
        };
        let (k, v) = &self.blocks[b];
        (KvView::new(k, start, len), KvView::new(v, start, len))
    }

    /// Marks `n` more positions as cached (every block must hold the rows
    /// [`KvCache::write_rows`] wrote past the cached ones). Past capacity the
    /// ring rotates, evicting the oldest positions.
    pub(crate) fn advance_by(&mut self, n: usize) {
        let total = self.len + n;
        if total <= self.capacity {
            self.len = total;
        } else {
            let evict = total - self.capacity;
            self.start = (self.start + evict) % self.capacity;
            self.len = self.capacity;
            self.evicted += evict as u64;
        }
    }

    /// Writes row `i` of `k` and `v` into one block at logical position
    /// `len + i`, for every row, without advancing the cache.
    pub(crate) fn write_rows(&mut self, block: usize, k: &Matrix, v: &Matrix) {
        let (kc, vc) = &mut self.blocks[block];
        for i in 0..k.rows() {
            // On a full ring `(start + len) % capacity == start`: the newest
            // row overwrites the oldest in place.
            let phys = (self.start + self.len + i) % self.capacity;
            kc.row_mut(phys).copy_from_slice(k.row(i));
            vc.row_mut(phys).copy_from_slice(v.row(i));
        }
    }
}

/// Oldest-first view of the key or value rows that attention reads:
/// those a [`KvCache`] block holds, resolving the ring indirection
/// (logical row `i` lives at physical row `(start + i) % capacity`), or,
/// through [`KvView::full`], a pass's own K/V matrix. Consumed by the one
/// attention core, [`crate::MultiHeadAttention::attend`].
#[derive(Debug, Clone, Copy)]
pub struct KvView<'a> {
    mat: &'a Matrix,
    start: usize,
    len: usize,
}

impl<'a> KvView<'a> {
    /// A view of the first `len` logical rows of `mat` starting at physical
    /// row `start` (wrapping).
    pub fn new(mat: &'a Matrix, start: usize, len: usize) -> Self {
        assert!(len <= mat.rows(), "view of {len} rows in {}", mat.rows());
        assert!(start < mat.rows().max(1), "start {start} out of ring");
        Self { mat, start, len }
    }

    /// A non-wrapping view of an entire matrix (logical == physical order).
    pub fn full(mat: &'a Matrix) -> Self {
        Self {
            mat,
            start: 0,
            len: mat.rows(),
        }
    }

    /// Number of logical rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.mat.cols()
    }

    /// Logical row `i` (oldest first).
    pub fn row(&self, i: usize) -> &'a [f32] {
        debug_assert!(i < self.len, "row {i} of {}", self.len);
        self.mat.row((self.start + i) % self.mat.rows())
    }

    /// Every logical row, oldest first. The ring wraps at most once, so
    /// this walks the physical rows from `start` and then from 0, with no
    /// `%` per row.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &'a [f32]> {
        let mat: &'a Matrix = self.mat;
        mat.iter_rows()
            .skip(self.start)
            .chain(mat.iter_rows())
            .take(self.len)
    }
}

/// A decoder-only transformer language model with manual backprop.
///
/// Operates on one token sequence at a time (training loops accumulate
/// gradients over a mini-batch of sequences before stepping).
#[derive(Debug, Clone)]
pub struct TransformerLm {
    config: ModelConfig,
    /// Token + positional embeddings.
    pub embedding: Embedding,
    /// Decoder blocks.
    pub blocks: Vec<TransformerBlock>,
    /// Final LayerNorm before the head.
    pub final_ln: LayerNorm,
    /// LM head (`d_model → vocab`), kept digital at deployment.
    pub head: DigitalLinear,
    last_embed: Option<Matrix>,
}

impl TransformerLm {
    /// Creates a randomly initialised model.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid.
    pub fn new(config: ModelConfig, rng: &mut Rng) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid model config: {e}"));
        let blocks = (0..config.layers)
            .map(|_| TransformerBlock::new(config.d_model, config.heads, config.d_ff, rng))
            .collect();
        Self {
            embedding: Embedding::new(config.vocab, config.max_seq, config.d_model, rng),
            blocks,
            final_ln: LayerNorm::new(config.d_model),
            head: DigitalLinear::new(config.d_model, config.vocab, rng),
            config,
            last_embed: None,
        }
    }

    /// Assembles a model from given parameter values, drawing no random
    /// number: `next(rows, cols)` yields each value in
    /// [`TransformerLm::params`] order, given the shape `config` implies
    /// for it, and its first error ends the assembly. The checkpoint loader
    /// streams a file's tensors through it.
    ///
    /// `config` must be valid ([`ModelConfig::validate`]).
    pub(crate) fn from_values<E>(
        config: ModelConfig,
        mut next: impl FnMut(usize, usize) -> Result<Matrix, E>,
    ) -> Result<Self, E> {
        let ModelConfig {
            vocab,
            max_seq,
            d_model: d,
            heads,
            d_ff,
            layers,
        } = config;
        let embedding = Embedding::from_values(next(vocab, d)?, next(max_seq, d)?);
        // Every other parameter is a `rows × cols` value and its `1 × cols`
        // bias.
        let mut pair =
            |rows, cols| -> Result<(Matrix, Matrix), E> { Ok((next(rows, cols)?, next(1, cols)?)) };
        let ln = |(gain, bias)| LayerNorm::from_values(gain, bias);
        let linear = |(weight, bias)| DigitalLinear::from_values(weight, bias);
        // Grown block by block: `layers` comes from the file, so nothing is
        // reserved for it before its tensors arrive.
        let mut blocks = Vec::new();
        for _ in 0..layers {
            let ln1 = ln(pair(1, d)?);
            let projections = [
                linear(pair(d, d)?),
                linear(pair(d, d)?),
                linear(pair(d, d)?),
                linear(pair(d, d)?),
            ];
            let attn = MultiHeadAttention::from_projections(projections, heads);
            let ln2 = ln(pair(1, d)?);
            let fc1 = linear(pair(d, d_ff)?);
            let fc2 = linear(pair(d_ff, d)?);
            blocks.push(TransformerBlock::from_parts(ln1, attn, ln2, fc1, fc2));
        }
        Ok(Self {
            embedding,
            blocks,
            final_ln: ln(pair(1, d)?),
            head: linear(pair(d, vocab)?),
            config,
            last_embed: None,
        })
    }

    /// Hyper-parameters.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Inference forward: logits `(seq × vocab)` for a token sequence.
    pub fn forward(&self, tokens: &[usize]) -> Matrix {
        self.pass(tokens, None, &mut |id, x| self.linear(id).forward(x))
    }

    /// Inference forward that also reports the input of every
    /// analog-mappable linear to `observer` — the calibration hook used by
    /// NORA to collect per-channel activation maxima. The logits are those
    /// of [`TransformerLm::forward`], bit for bit.
    pub fn forward_observed<F>(&self, tokens: &[usize], observer: &mut F) -> Matrix
    where
        F: FnMut(LinearId, &Matrix),
    {
        self.pass(tokens, None, &mut |id, x| {
            observer(id, x);
            self.linear(id).forward(x)
        })
    }

    /// The inference pass that every forward, calibration, eval and decode
    /// path runs: embeds `tokens`, runs the block body
    /// ([`TransformerBlock::infer`]) of every block with `project` as its
    /// linears, then the final LayerNorm and the head.
    ///
    /// Without a cache the rows sit at positions `0..n`, attend causally
    /// among themselves, and the logits of every row come back (`n ×
    /// vocab`). With one they continue at the cache's next position, their
    /// K/V rows are appended behind the cached ones, and only the last row
    /// goes on past K/V in the last block, so one row of logits comes back
    /// (the answer cone).
    ///
    /// # Panics
    ///
    /// Panics if a token is out of vocabulary or past `max_seq`; with a
    /// cache, also if `tokens` is empty, if there are more tokens than free
    /// positions (a single token on a full cache evicts the oldest
    /// position), or if the cache was built for a different architecture.
    pub(crate) fn pass(
        &self,
        tokens: &[usize],
        mut cache: Option<&mut KvCache>,
        project: &mut impl FnMut(LinearId, &Matrix) -> Matrix,
    ) -> Matrix {
        let n = tokens.len();
        if let Some(cache) = &cache {
            assert_eq!(
                cache.blocks.len(),
                self.blocks.len(),
                "cache/model mismatch"
            );
            assert!(n > 0, "a decode pass needs at least one token");
            assert!(
                n == 1 || cache.len() + n <= cache.capacity(),
                "{n} rows do not fit the {} free positions of the cache",
                cache.capacity() - cache.len()
            );
        }
        let pos0 = cache.as_ref().map_or(0, |c| c.next_position());
        let mut x = self.embedding.embed_at(tokens, pos0);
        let last_block = self.blocks.len() - 1;
        for (b, block) in self.blocks.iter().enumerate() {
            let attend = match cache.as_deref_mut() {
                Some(cache) => Attend::Cached {
                    cache,
                    answer_only: b == last_block,
                },
                None => Attend::Causal,
            };
            x = block.infer(b, x, attend, project);
        }
        if let Some(cache) = cache {
            cache.advance_by(n);
        }
        let x = self.final_ln.forward_inference(&x);
        self.head.forward(&x)
    }

    /// Borrow of one analog-mappable linear.
    pub fn linear(&self, id: LinearId) -> &DigitalLinear {
        self.blocks[id.block].linear(id.kind)
    }

    /// Mutable borrow of one analog-mappable linear.
    pub fn linear_mut(&mut self, id: LinearId) -> &mut DigitalLinear {
        self.blocks[id.block].linear_mut(id.kind)
    }

    /// All analog-mappable linear ids of this model, in forward order.
    pub fn linear_ids(&self) -> Vec<LinearId> {
        let mut ids = Vec::with_capacity(self.blocks.len() * 6);
        for b in 0..self.blocks.len() {
            for kind in LinearKind::ALL {
                ids.push(LinearId::new(b, kind));
            }
        }
        ids
    }

    /// Training forward with caches: logits for one sequence.
    pub fn forward_train(&mut self, tokens: &[usize]) -> Matrix {
        let mut x = self.embedding.forward(tokens);
        for block in &mut self.blocks {
            x = block.forward(&x);
        }
        let x = self.final_ln.forward(&x);
        self.last_embed = Some(x.clone());
        self.head.forward(&x)
    }

    /// Computes next-token cross-entropy on one sequence and accumulates
    /// gradients. Returns the mean loss over the `len-1` predicted
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if the sequence has fewer than 2 tokens.
    pub fn loss_and_backward(&mut self, tokens: &[usize]) -> f64 {
        assert!(tokens.len() >= 2, "need at least 2 tokens for LM loss");
        let logits = self.forward_train(tokens);
        // Position t predicts token t+1.
        let pred = logits.submatrix(0, tokens.len() - 1, 0, self.config.vocab);
        let targets = &tokens[1..];
        let (loss, dpred) = cross_entropy(&pred, targets);
        // The last position has no target: zero grad there.
        let mut dlogits = Matrix::zeros(tokens.len(), self.config.vocab);
        dlogits.set_submatrix(0, 0, &dpred);

        let x_final = self.last_embed.take().expect("forward_train cache");
        let dx = self.head.backward(&x_final, &dlogits);
        let mut dx = self.final_ln.backward(&dx);
        for block in self.blocks.iter_mut().rev() {
            dx = block.backward(&dx);
        }
        self.embedding.backward(&dx);
        loss
    }

    /// Immutable view of every parameter, in the same stable traversal
    /// order as [`TransformerLm::params_mut`] (used by serialization).
    pub fn params(&self) -> Vec<&Param> {
        let mut out: Vec<&Param> = Vec::new();
        out.push(&self.embedding.tokens);
        out.push(&self.embedding.positions);
        for block in &self.blocks {
            out.push(&block.ln1.gain);
            out.push(&block.ln1.bias);
            out.push(&block.attn.wq.weight);
            out.push(&block.attn.wq.bias);
            out.push(&block.attn.wk.weight);
            out.push(&block.attn.wk.bias);
            out.push(&block.attn.wv.weight);
            out.push(&block.attn.wv.bias);
            out.push(&block.attn.wo.weight);
            out.push(&block.attn.wo.bias);
            out.push(&block.ln2.gain);
            out.push(&block.ln2.bias);
            out.push(&block.fc1.weight);
            out.push(&block.fc1.bias);
            out.push(&block.fc2.weight);
            out.push(&block.fc2.bias);
        }
        out.push(&self.final_ln.gain);
        out.push(&self.final_ln.bias);
        out.push(&self.head.weight);
        out.push(&self.head.bias);
        out
    }

    /// Mutable access to every parameter (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = Vec::new();
        out.extend(self.embedding.params_mut());
        for block in &mut self.blocks {
            out.extend(block.params_mut());
        }
        out.extend(self.final_ln.params_mut());
        out.extend(self.head.params_mut());
        out
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// One incremental decode step: processes `token` at the cache's next
    /// position, appends its K/V rows, and returns the logits for the next
    /// token (length `vocab`). This is [`TransformerLm::decode_rows`] over
    /// one row.
    ///
    /// A full prompt processed token by token through `decode_step` gives
    /// the logits of [`TransformerLm::forward`] on the whole sequence, bit
    /// for bit at every position: both run the one attention core
    /// ([`crate::MultiHeadAttention::attend`]) over the same rows.
    ///
    /// On a *full* cache the step does not panic: the ring evicts the oldest
    /// position and the new token executes at the final positional slot.
    /// This is an approximation of window truncation (surviving K/V rows
    /// keep their original positional phases); use
    /// [`crate::generate::generate_digital_cached`] for generation that
    /// matches [`crate::generate::generate_digital`]'s truncation exactly.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built for a different architecture or
    /// `token` is out of vocabulary.
    ///
    /// # Example
    ///
    /// ```
    /// use nora_nn::{KvCache, ModelConfig, TransformerLm};
    /// use nora_tensor::rng::Rng;
    ///
    /// let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(0));
    /// let mut cache = KvCache::new(&model);
    /// let logits_a = model.decode_step(3, &mut cache);
    /// let logits_b = model.decode_step(1, &mut cache);
    /// assert_eq!(cache.len(), 2);
    /// // The full forward at the same positions, bit for bit:
    /// let full = model.forward(&[3, 1]);
    /// assert_eq!(logits_b.as_slice(), full.row(1));
    /// # let _ = logits_a;
    /// ```
    pub fn decode_step(&self, token: usize, cache: &mut KvCache) -> Vec<f32> {
        self.decode_rows(&[token], cache)
    }

    /// Decodes `tokens` at consecutive cache positions in one pass, appends
    /// their K/V rows, and returns the logits after the last token (length
    /// `vocab`).
    ///
    /// The result, and every K/V row the cache holds afterwards, has the
    /// bits of `tokens.len()` [`TransformerLm::decode_step`] calls. Each
    /// block computes LayerNorm, K and V for all rows as matrix products and
    /// writes every K/V row to the cache; row `i` then attends over exactly
    /// the cached positions plus rows `0..=i`, as the serial step would.
    /// In the last block only the last row goes on past K/V (the answer
    /// cone): the other rows' outputs there would only feed logits that
    /// nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, if there are more tokens than free
    /// positions in the cache (a single token on a full cache evicts the
    /// oldest position, as `decode_step` does), if the cache was built for a
    /// different architecture, or if a token is out of vocabulary.
    ///
    /// # Example
    ///
    /// ```
    /// use nora_nn::{KvCache, ModelConfig, TransformerLm};
    /// use nora_tensor::rng::Rng;
    ///
    /// let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut Rng::seed_from(0));
    /// let mut serial = KvCache::new(&model);
    /// let mut last = Vec::new();
    /// for t in [3, 1, 4] {
    ///     last = model.decode_step(t, &mut serial);
    /// }
    /// let mut pass = KvCache::new(&model);
    /// assert_eq!(model.decode_rows(&[3, 1, 4], &mut pass), last);
    /// assert_eq!(pass.len(), 3);
    /// ```
    pub fn decode_rows(&self, tokens: &[usize], cache: &mut KvCache) -> Vec<f32> {
        self.pass(tokens, Some(cache), &mut |id, x| self.linear(id).forward(x))
            .into_vec()
    }

    /// Greedy argmax prediction at the last position of `tokens`.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn predict_next(&self, tokens: &[usize]) -> usize {
        assert!(!tokens.is_empty(), "empty context");
        let logits = self.forward(tokens);
        let last = logits.row(logits.rows() - 1);
        last.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::seed_from(1);
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        let logits = model.forward(&[0, 1, 2, 3]);
        assert_eq!(logits.shape(), (4, 16));
    }

    #[test]
    fn forward_observed_matches_plain_forward() {
        let mut rng = Rng::seed_from(2);
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        let tokens = [3usize, 1, 4, 1, 5];
        let mut seen = Vec::new();
        let a = model.forward_observed(&tokens, &mut |id, x| {
            seen.push((id, x.shape()));
        });
        let b = model.forward(&tokens);
        assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
        // Every linear's input, in forward order: seq × d_model, except the
        // FC2 input, seq × d_ff.
        let want: Vec<(LinearId, (usize, usize))> = LinearKind::ALL
            .into_iter()
            .map(|kind| {
                let width = if kind == LinearKind::Fc2 { 32 } else { 16 };
                (LinearId::new(0, kind), (5, width))
            })
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn loss_decreases_under_training_on_trivial_pattern() {
        let mut rng = Rng::seed_from(3);
        let mut model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        // Constant repetition: 5 5 5 5 ... trivially learnable.
        let seq: Vec<usize> = vec![5; 8];
        let mut first = None;
        let mut last = 0.0;
        for t in 1..=60 {
            model.zero_grad();
            let loss = model.loss_and_backward(&seq);
            for p in model.params_mut() {
                p.adam_step(3e-3, 0.9, 0.999, 1e-8, t);
            }
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(
            last < first.unwrap() / 4.0,
            "loss should drop: {first:?} → {last}"
        );
        assert_eq!(model.predict_next(&[5, 5, 5]), 5);
    }

    #[test]
    fn decode_step_matches_full_forward() {
        let mut rng = Rng::seed_from(21);
        let cfg = ModelConfig {
            layers: 2,
            ..ModelConfig::tiny_for_tests()
        };
        let model = TransformerLm::new(cfg, &mut rng);
        let tokens = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let full = model.forward(&tokens);
        let mut cache = KvCache::new(&model);
        let mut last = Vec::new();
        for (i, &t) in tokens.iter().enumerate() {
            last = model.decode_step(t, &mut cache);
            assert_eq!(cache.len(), i + 1);
            // Logits at every intermediate position must match too, bit
            // for bit: both paths run the one attention core.
            assert_eq!(bits(&last), bits(full.row(i)), "pos {i}");
        }
        assert_eq!(last.len(), model.config().vocab);
    }

    #[test]
    fn decode_step_evicts_instead_of_panicking_past_max_seq() {
        let mut rng = Rng::seed_from(22);
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        let max_seq = model.config().max_seq;
        let mut cache = KvCache::new(&model);
        for step in 0..=max_seq + 2 {
            let logits = model.decode_step(1 + step % 3, &mut cache);
            assert_eq!(logits.len(), model.config().vocab);
        }
        assert_eq!(cache.len(), max_seq);
        assert!(!cache.has_capacity());
        assert_eq!(cache.evicted(), 3);
    }

    #[test]
    fn windowed_cache_ring_matches_serial_refill_on_survivors() {
        // After eviction, the surviving logical rows must be exactly the
        // rows that a fresh cache would hold after appending the same
        // trailing K/V data — the ring indirection is invisible.
        let mut rng = Rng::seed_from(23);
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        let window = 4;
        let mut ring = KvCache::with_capacity(&model, window);
        let tokens: Vec<usize> = (0..9).map(|i| (i * 5 + 1) % 16).collect();
        for &t in &tokens {
            model.decode_step(t, &mut ring);
        }
        assert_eq!(ring.len(), window);
        assert_eq!(ring.evicted(), (tokens.len() - window) as u64);
        // Views expose the last `window` appended rows, oldest first.
        let (kv, _) = ring.view_rows(0, 0);
        assert_eq!(kv.len(), window);
        // Re-decode only the final token into a clone whose ring head is
        // elsewhere: its newest row must equal the ring's newest row.
        let mut replay = ring.clone();
        replay.reset();
        for &t in &tokens[tokens.len() - window..] {
            model.decode_step(t, &mut replay);
        }
        let (rk, _) = replay.view_rows(0, 0);
        // Newest K row matches: the final token was embedded at position
        // window-1 in both caches (ring saturates next_position there).
        assert_eq!(kv.row(window - 1), rk.row(window - 1));
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Every cached K and V row of every block, oldest first, as bits.
    fn cache_bits(cache: &KvCache) -> Vec<Vec<u32>> {
        let mut rows = Vec::new();
        for b in 0..cache.blocks.len() {
            let (k, v) = cache.view_rows(b, 0);
            for i in 0..k.len() {
                rows.push(bits(k.row(i)));
                rows.push(bits(v.row(i)));
            }
        }
        rows
    }

    /// `decode_rows` over every prefix length that fits, from `primed`
    /// (a cache that may already hold rows), against one-row calls.
    fn assert_pass_matches_serial(model: &TransformerLm, primed: &KvCache, what: &str) {
        let room = primed.capacity() - primed.len();
        let tokens: Vec<usize> = (0..room)
            .map(|i| (i * 7 + 3) % model.config().vocab)
            .collect();
        for n in 1..=room {
            let mut serial = primed.clone();
            let mut want = Vec::new();
            for &t in &tokens[..n] {
                want = model.decode_step(t, &mut serial);
            }
            let mut pass = primed.clone();
            let got = model.decode_rows(&tokens[..n], &mut pass);
            assert_eq!(bits(&got), bits(&want), "{what}: logits, n={n}");
            assert_eq!(pass.len(), serial.len(), "{what}: len, n={n}");
            assert_eq!(pass.evicted(), serial.evicted(), "{what}: evicted, n={n}");
            assert_eq!(
                cache_bits(&pass),
                cache_bits(&serial),
                "{what}: kv rows, n={n}"
            );
        }
    }

    fn two_layer_model(seed: u64) -> TransformerLm {
        let cfg = ModelConfig {
            layers: 2,
            ..ModelConfig::tiny_for_tests()
        };
        TransformerLm::new(cfg, &mut Rng::seed_from(seed))
    }

    #[test]
    fn decode_rows_is_bit_identical_to_serial_steps() {
        let model = two_layer_model(24);
        for capacity in [model.config().max_seq, 5] {
            let cache = KvCache::with_capacity(&model, capacity);
            assert_pass_matches_serial(&model, &cache, &format!("capacity {capacity}"));
        }
    }

    #[test]
    fn decode_rows_is_bit_identical_on_packed_sparse_weights() {
        let mut model = two_layer_model(25);
        for id in model.linear_ids() {
            model
                .linear_mut(id)
                .apply_sparsity(nora_tensor::NmPattern::N2M4, None);
        }
        assert!(model
            .linear(LinearId::new(1, LinearKind::Fc2))
            .sparse
            .is_some());
        for capacity in [model.config().max_seq, 5] {
            let cache = KvCache::with_capacity(&model, capacity);
            assert_pass_matches_serial(&model, &cache, &format!("2:4, capacity {capacity}"));
        }
    }

    #[test]
    fn decode_rows_continues_a_non_empty_cache() {
        let model = two_layer_model(26);
        let mut primed = KvCache::with_capacity(&model, 11);
        for t in [2, 7, 1] {
            model.decode_step(t, &mut primed);
        }
        assert_pass_matches_serial(&model, &primed, "after 3 rows");
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn decode_rows_past_the_free_positions_panics() {
        let model = two_layer_model(27);
        let mut cache = KvCache::with_capacity(&model, 4);
        model.decode_step(1, &mut cache);
        model.decode_rows(&[1, 2, 3, 4], &mut cache);
    }

    /// `(linear, rows of its input)` for every projection of one pass over
    /// `n` tokens, in call order.
    fn rows_seen(
        model: &TransformerLm,
        n: usize,
        cache: Option<&mut KvCache>,
    ) -> Vec<(LinearId, usize)> {
        let tokens: Vec<usize> = (0..n).map(|i| (i * 5 + 2) % model.config().vocab).collect();
        let mut seen = Vec::new();
        model.pass(&tokens, cache, &mut |id, x| {
            seen.push((id, x.rows()));
            model.linear(id).forward(x)
        });
        seen
    }

    #[test]
    fn cached_pass_computes_only_the_answer_cone() {
        let model = two_layer_model(28);
        let n = 5;
        // Every linear of block 0 and K/V of the last block see all rows;
        // the last block's Q, Out, FC1 and FC2 see the last row alone.
        let cone: Vec<(LinearId, usize)> = model
            .linear_ids()
            .into_iter()
            .map(|id| {
                let kv = matches!(id.kind, LinearKind::K | LinearKind::V);
                (id, if id.block == 1 && !kv { 1 } else { n })
            })
            .collect();
        let mut cache = KvCache::new(&model);
        assert_eq!(rows_seen(&model, n, Some(&mut cache)), cone);
        assert_eq!(cache.len(), n);
        // Without a cache every row's logits come back, so every linear
        // sees every row.
        let all: Vec<(LinearId, usize)> =
            model.linear_ids().into_iter().map(|id| (id, n)).collect();
        assert_eq!(rows_seen(&model, n, None), all);
    }

    #[test]
    fn linear_ids_cover_all_blocks() {
        let mut rng = Rng::seed_from(4);
        let cfg = ModelConfig {
            layers: 3,
            ..ModelConfig::tiny_for_tests()
        };
        let model = TransformerLm::new(cfg, &mut rng);
        let ids = model.linear_ids();
        assert_eq!(ids.len(), 18);
        assert_eq!(ids[6].block, 1);
    }

    #[test]
    fn linear_accessors_agree() {
        let mut rng = Rng::seed_from(5);
        let mut model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        let id = LinearId::new(0, LinearKind::Fc1);
        let shape = model.linear(id).weight.value.shape();
        assert_eq!(shape, (16, 32));
        model.linear_mut(id).weight.value[(0, 0)] = 99.0;
        assert_eq!(model.linear(id).weight.value[(0, 0)], 99.0);
    }

    #[test]
    fn param_count_formula_matches_actuals() {
        let mut rng = Rng::seed_from(6);
        let cfg = ModelConfig::tiny_for_tests();
        let mut model = TransformerLm::new(cfg, &mut rng);
        let actual: usize = model.params_mut().iter().map(|p| p.value.len()).sum();
        assert_eq!(actual, cfg.param_count());
    }

    #[test]
    #[should_panic(expected = "invalid model config")]
    fn invalid_config_panics() {
        let cfg = ModelConfig {
            heads: 3,
            ..ModelConfig::tiny_for_tests()
        };
        TransformerLm::new(cfg, &mut Rng::seed_from(0));
    }

    #[test]
    fn validate_catches_bad_configs() {
        let good = ModelConfig::tiny_for_tests();
        assert!(good.validate().is_ok());
        assert!(ModelConfig { vocab: 1, ..good }.validate().is_err());
        assert!(ModelConfig { layers: 0, ..good }.validate().is_err());
    }
}
