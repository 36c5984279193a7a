//! The compile/execute split: a lowered, allocation-free inference engine.
//!
//! [`MamdaniEngine::infer`] is the readable reference implementation: it
//! resolves variables and terms by string name and returns a freshly
//! allocated [`crate::InferenceOutput`] per call.  That is the right shape
//! for building and debugging a controller, and exactly the wrong shape for
//! an admission hot path that runs millions of inferences per sweep.
//!
//! [`MamdaniEngine::compile`] lowers a validated engine into a
//! [`CompiledEngine`]:
//!
//! * names are interned into dense [`VarId`] / [`TermId`] handles resolved
//!   once at compile time — the execute path never touches a string;
//! * the rule base is flattened into index arrays (antecedent slots into a
//!   flat fuzzification buffer, consequent slots into flat output-term
//!   tables);
//! * each plain AND rule also gets a bit mask of the input terms it reads,
//!   so a rule that cannot fire is skipped without folding its antecedents
//!   (see [Active rules](#active-rules));
//! * every consequent term's membership function is pre-sampled on the
//!   engine's output grid, so aggregation is `min`/`max` over arrays with
//!   no membership evaluation;
//! * each pre-sampled term also records its *support window*: the
//!   `[lo, hi)` sample range outside of which every sample is exactly
//!   `+0.0` (tested on the bits, so a `-0.0` sample stays inside).  Under
//!   max aggregation a fired term is aggregated over its window only, and
//!   the centroid runs over the union of the fired terms' windows (see
//!   [Support windows](#support-windows));
//! * all working memory lives in a caller-owned [`Scratch`], so the
//!   steady-state path [`CompiledEngine::infer_into`] performs **zero heap
//!   allocations** (asserted by a counting-allocator test).
//!
//! The compiled path is *bit-identical* to the interpreted one: for the
//! same inputs, `infer_into` produces exactly the `f64` bits that
//! `MamdaniEngine::infer` + [`crate::Defuzzifier`] produce.  This is what
//! lets the FACS controllers switch to the compiled path without moving a
//! single simulation result.
//!
//! # Support windows
//!
//! A consequent term of a paper controller is non-zero on a small part of
//! its universe, yet a full-grid kernel pays for every sample of every
//! fired term.  The max-aggregation path skips the samples outside a
//! term's support window, and the centroid skips the samples outside the
//! union of the fired windows.  Both skips are exact, bit for bit:
//!
//! * outside its window a term's samples are `+0.0`, and the fired height
//!   `h` is positive, so the skipped step is `max(a, min(+0, h))` (clip)
//!   or `max(a, +0 · h)` (scale), i.e. `max(a, +0)`.  Aggregation starts
//!   from `aggregated.fill(0.0)` and only takes maxima of non-negative
//!   degrees, so `a ≥ +0` and the step leaves `a` unchanged:
//!   [`Scratch::aggregated`] still holds the full, exact set.  (A `-0.0`
//!   degree can only come from a `-0.0` sample; none of the built-in
//!   membership functions produces one, and the crisp result ignores the
//!   sign of a zero degree anyway, as the next point shows);
//! * outside every fired window the aggregated set is `+0.0`, so the
//!   skipped centroid terms add `±0` to `num` and `den`.  Both sums start
//!   at `+0.0` and can never become `-0.0` (a rounded sum is `-0.0` only
//!   when both addends are), so adding `±0` leaves them bitwise
//!   unchanged.  The endpoint half weights at indices `0` and `n − 1`
//!   apply exactly when the window reaches them, and the summation order
//!   is unchanged.
//!
//! The general (non-max) aggregation path and the other defuzzifiers run
//! over the full grid as before.
//!
//! # Active rules
//!
//! A full-grid rule base pays for every rule on every call, yet with
//! overlapping triangular partitions at most two terms per input are
//! non-zero: at most 8 rules of the paper's 63-rule FRB1 and 8 of the
//! 27-rule FRB2 can fire (4 of FRB2 at the 5 and 10 BU request classes,
//! where the request input sits on a term peak).  At compile
//! time every AND rule whose antecedents are all non-negated gets a `u64`
//! mask of the flat input-term slots it reads.  Fuzzification records the
//! terms whose degree is non-zero.  Then, in both aggregation paths, a
//! branch-free screen gives every rule the strength `0.0 * weight` and
//! lists, in rule-base order, the rules whose mask is fully covered; only
//! those are folded and aggregated.  For a skipped rule `0.0 * weight` is
//! exactly what the fold would have produced:
//!
//! * one of its (non-negated) antecedents has a degree of `±0`, and every
//!   t-norm is `0` when one operand is `0` (degrees are finite and
//!   clamped, so no NaN can intervene);
//! * the fold returns the literal `+0.0` as soon as its accumulator
//!   compares equal to zero, whichever antecedent that is, so the
//!   reported strength is `+0.0 * weight` either way and the rule
//!   contributes nothing to the aggregated set.
//!
//! OR rules (a zero operand does not decide an s-norm), rules with a
//! negated antecedent (the complement of `0` is `1`) and engines with more
//! than 64 input terms get the mask `0`, which every call covers: they run
//! the fold unchanged.
//!
//! # Quick example
//!
//! ```
//! use fuzzy::prelude::*;
//!
//! let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
//!     .triangle("Cold", 0.0, 0.0, 20.0)
//!     .triangle("Hot", 20.0, 40.0, 40.0)
//!     .build()
//!     .unwrap();
//! let fan = LinguisticVariable::builder("fan", 0.0, 100.0)
//!     .triangle("Slow", 0.0, 0.0, 50.0)
//!     .triangle("Fast", 50.0, 100.0, 100.0)
//!     .build()
//!     .unwrap();
//! let mut engine = MamdaniEngine::builder()
//!     .input(temperature)
//!     .output(fan)
//!     .build()
//!     .unwrap();
//! engine.add_rule_str("IF temperature IS Hot THEN fan IS Fast").unwrap();
//! engine.add_rule_str("IF temperature IS Cold THEN fan IS Slow").unwrap();
//!
//! // Compile once, then run the allocation-free hot path.
//! let compiled = engine.compile().unwrap();
//! let mut scratch = compiled.scratch();
//! let crisp = compiled.infer_into(&[35.0], &mut scratch);
//! assert!(crisp[0] > 60.0);
//!
//! // Bit-identical to the interpreted reference path.
//! let reference = engine.infer(&[35.0]).unwrap().crisp("fan").unwrap();
//! assert_eq!(crisp[0].to_bits(), reference.to_bits());
//! ```

use crate::defuzz::Defuzzifier;
use crate::engine::{Implication, MamdaniEngine};
use crate::error::{FuzzyError, Result};
use crate::membership::MembershipFunction;
use crate::norms::{complement, SNorm, TNorm};
use crate::rule::Connective;
use crate::{clamp_degree, variable::LinguisticVariable};

/// Interned handle to a variable of a [`CompiledEngine`].
///
/// For inputs the id is the position of the crisp value in the slice passed
/// to [`CompiledEngine::infer_into`]; for outputs it is the position of the
/// crisp result in the returned slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(u16);

impl VarId {
    /// The dense index this handle stands for.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Handle for the variable at declaration position `index`.
    ///
    /// # Panics
    /// Panics when `index` exceeds `u16::MAX` (an engine can never intern
    /// that many variables).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(u16::try_from(index).expect("variable index fits in u16"))
    }
}

/// Interned handle to one term of one variable of a [`CompiledEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId {
    var: u16,
    term: u16,
}

impl TermId {
    /// The variable this term belongs to.
    #[must_use]
    pub fn var(self) -> VarId {
        VarId(self.var)
    }

    /// The term's position within its variable's term set.
    #[must_use]
    pub fn term_index(self) -> usize {
        usize::from(self.term)
    }
}

/// One lowered antecedent clause: a slot into the flat fuzzification buffer
/// plus the negation flag.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompiledAntecedent {
    slot: u32,
    negated: bool,
}

/// One lowered consequent clause: output index and flat output-term index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompiledConsequent {
    out: u32,
    flat_term: u32,
}

/// Reusable working memory for [`CompiledEngine::infer_into`].
///
/// Create one with [`CompiledEngine::scratch`] and reuse it across calls;
/// after construction the execute path never allocates.  A `Scratch` is
/// tied to the shape of the engine that created it (buffer sizes are
/// checked on every call).
#[derive(Debug, Clone, PartialEq)]
pub struct Scratch {
    /// Membership degree of every input term, flattened in declaration
    /// order.
    fuzzified: Vec<f64>,
    /// Per-rule firing strength (weight applied), in rule-base order.
    strengths: Vec<f64>,
    /// Rules whose term mask the current inputs cover (the only ones that
    /// can fire), in rule-base order; the first entries are live.
    candidates: Vec<usize>,
    /// Maximum firing strength per output term (max-aggregation fast path).
    term_strengths: Vec<f64>,
    /// Aggregated output sets, one `resolution`-sized window per output.
    aggregated: Vec<f64>,
    /// Crisp result per output variable.
    crisp: Vec<f64>,
    /// Samples per aggregated output window (copied from the engine so the
    /// accessors below cannot be fed a stale resolution).
    resolution: usize,
}

impl Scratch {
    /// Per-rule firing strengths of the most recent inference, in rule-base
    /// order (weights applied) — the diagnostic counterpart of
    /// [`crate::InferenceOutput::firing_strengths`].
    #[must_use]
    pub fn firing_strengths(&self) -> &[f64] {
        &self.strengths
    }

    /// The aggregated (sampled) output set of output `out` from the most
    /// recent inference.
    #[must_use]
    pub fn aggregated(&self, out: VarId) -> &[f64] {
        &self.aggregated[out.index() * self.resolution..(out.index() + 1) * self.resolution]
    }
}

/// A lowered Mamdani engine: the execute half of the compile/execute split.
///
/// Build one with [`MamdaniEngine::compile`]; see the [module docs](self)
/// for the design and a usage example.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledEngine {
    // --- inputs -----------------------------------------------------------
    input_names: Vec<String>,
    input_bounds: Vec<(f64, f64)>,
    /// `inputs + 1` offsets into `mfs` / `Scratch::fuzzified`.
    input_term_offsets: Vec<u32>,
    input_term_names: Vec<String>,
    /// Every input term's membership function, flattened.
    mfs: Vec<MembershipFunction>,
    // --- rules ------------------------------------------------------------
    rule_weights: Vec<f64>,
    /// Flat input-term slots each rule reads, as a bit mask; the rule can
    /// fire only when every one of them has a non-zero degree.  `0` (always
    /// folded) for OR rules, rules with a negated antecedent, and engines
    /// with more than 64 input terms (see [Active rules](self#active-rules)).
    rule_masks: Vec<u64>,
    rule_connectives: Vec<Connective>,
    rule_ante_offsets: Vec<u32>,
    antecedents: Vec<CompiledAntecedent>,
    rule_cons_offsets: Vec<u32>,
    consequents: Vec<CompiledConsequent>,
    // --- outputs ----------------------------------------------------------
    output_names: Vec<String>,
    output_bounds: Vec<(f64, f64)>,
    /// `outputs + 1` offsets into the flat output-term index space.
    output_term_offsets: Vec<u32>,
    output_term_names: Vec<String>,
    /// Pre-sampled consequent membership functions: one `resolution`-sized
    /// window per flat output term.
    term_samples: Vec<f64>,
    /// Support window per flat output term: the `[lo, hi)` sample range
    /// outside of which every sample is `+0.0` (`lo == hi` when the whole
    /// term samples to `+0.0`).
    term_windows: Vec<(u32, u32)>,
    /// Pre-computed sample grids: one `resolution`-sized window per output.
    xs: Vec<f64>,
    /// Crisp value reported when no rule fired for an output (defaults to
    /// the universe midpoint, the same value the interpreted centroid
    /// degenerates to).
    empty_defaults: Vec<f64>,
    // --- configuration ----------------------------------------------------
    resolution: usize,
    and_norm: TNorm,
    or_norm: SNorm,
    aggregation: SNorm,
    implication: Implication,
    defuzzifier: Defuzzifier,
    /// `aggregation == SNorm::Maximum` lets aggregation run once per fired
    /// output *term* (with the max strength over its rules) instead of once
    /// per fired rule — exact for max, and the common Mamdani case.
    fast_max_aggregation: bool,
}

impl CompiledEngine {
    /// Lower `engine` into its compiled form.
    ///
    /// Fails when the engine has no rules, or when a rule references an
    /// unknown variable or term (rules added through the engine API are
    /// always valid; this guards hand-built rule bases).
    pub fn compile(engine: &MamdaniEngine) -> Result<Self> {
        if engine.rules().is_empty() {
            return Err(FuzzyError::EmptyEngine { missing: "rules" });
        }
        let resolution = engine.resolution();
        let inputs = engine.inputs();
        let outputs = engine.outputs();

        let mut input_term_offsets = Vec::with_capacity(inputs.len() + 1);
        let mut input_term_names = Vec::new();
        let mut mfs = Vec::new();
        input_term_offsets.push(0u32);
        for v in inputs {
            for t in v.terms() {
                input_term_names.push(t.name().to_string());
                mfs.push(t.membership_function().clone());
            }
            input_term_offsets.push(as_u32(mfs.len()));
        }

        let mut output_term_offsets = Vec::with_capacity(outputs.len() + 1);
        let mut output_term_names = Vec::new();
        let mut term_samples = Vec::new();
        let mut term_windows = Vec::new();
        let mut xs = Vec::with_capacity(outputs.len() * resolution);
        let mut empty_defaults = Vec::with_capacity(outputs.len());
        output_term_offsets.push(0u32);
        let mut flat_terms = 0usize;
        for v in outputs {
            // The exact grid FuzzySet::x_at produces for this universe.
            let (min, max) = (v.min(), v.max());
            let grid_start = xs.len();
            for i in 0..resolution {
                xs.push(min + (max - min) * (i as f64) / ((resolution - 1) as f64));
            }
            for t in v.terms() {
                output_term_names.push(t.name().to_string());
                let mf = t.membership_function();
                let sample_start = term_samples.len();
                for &x in &xs[grid_start..grid_start + resolution] {
                    term_samples.push(mf.membership(x));
                }
                term_windows.push(support_window(&term_samples[sample_start..]));
            }
            flat_terms += v.term_count();
            output_term_offsets.push(as_u32(flat_terms));
            empty_defaults.push(0.5 * (min + max));
        }

        let find_var = |vars: &[LinguisticVariable], name: &str| -> Result<usize> {
            vars.iter()
                .position(|v| v.name() == name)
                .ok_or_else(|| FuzzyError::UnknownVariable {
                    name: name.to_string(),
                })
        };

        let mut rule_weights = Vec::with_capacity(engine.rules().len());
        let mut rule_masks = Vec::with_capacity(engine.rules().len());
        let mut rule_connectives = Vec::with_capacity(engine.rules().len());
        let mut rule_ante_offsets = vec![0u32];
        let mut antecedents = Vec::new();
        let mut rule_cons_offsets = vec![0u32];
        let mut consequents = Vec::new();
        for rule in engine.rules().rules() {
            rule_weights.push(rule.weight());
            rule_connectives.push(rule.connective());
            let maskable = rule.connective() == Connective::And
                && mfs.len() <= 64
                && rule.antecedents().iter().all(|a| !a.negated);
            let mut mask = 0u64;
            for a in rule.antecedents() {
                let var_idx = find_var(inputs, &a.variable)?;
                let term_idx =
                    inputs[var_idx]
                        .term_index(&a.term)
                        .ok_or_else(|| FuzzyError::UnknownTerm {
                            variable: a.variable.clone(),
                            term: a.term.clone(),
                        })?;
                let slot = input_term_offsets[var_idx] + as_u32(term_idx);
                if maskable {
                    mask |= 1 << slot;
                }
                antecedents.push(CompiledAntecedent {
                    slot,
                    negated: a.negated,
                });
            }
            rule_masks.push(mask);
            rule_ante_offsets.push(as_u32(antecedents.len()));
            for c in rule.consequents() {
                let out_idx = find_var(outputs, &c.variable)?;
                let term_idx = outputs[out_idx].term_index(&c.term).ok_or_else(|| {
                    FuzzyError::UnknownTerm {
                        variable: c.variable.clone(),
                        term: c.term.clone(),
                    }
                })?;
                consequents.push(CompiledConsequent {
                    out: as_u32(out_idx),
                    flat_term: output_term_offsets[out_idx] + as_u32(term_idx),
                });
            }
            rule_cons_offsets.push(as_u32(consequents.len()));
        }

        Ok(Self {
            input_names: inputs.iter().map(|v| v.name().to_string()).collect(),
            input_bounds: inputs.iter().map(|v| (v.min(), v.max())).collect(),
            input_term_offsets,
            input_term_names,
            mfs,
            rule_weights,
            rule_masks,
            rule_connectives,
            rule_ante_offsets,
            antecedents,
            rule_cons_offsets,
            consequents,
            output_names: outputs.iter().map(|v| v.name().to_string()).collect(),
            output_bounds: outputs.iter().map(|v| (v.min(), v.max())).collect(),
            output_term_offsets,
            output_term_names,
            term_samples,
            term_windows,
            xs,
            empty_defaults,
            resolution,
            and_norm: engine.and_norm(),
            or_norm: engine.or_norm(),
            aggregation: engine.aggregation(),
            implication: engine.implication(),
            defuzzifier: engine.defuzzifier(),
            fast_max_aggregation: engine.aggregation() == SNorm::Maximum,
        })
    }

    /// Number of declared input variables (= required input arity).
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_bounds.len()
    }

    /// Number of declared output variables (= length of the crisp result).
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.output_bounds.len()
    }

    /// Number of compiled rules.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rule_weights.len()
    }

    /// The engine's output sampling resolution.
    #[must_use]
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Universe bounds of input `id`.
    #[must_use]
    pub fn input_bounds(&self, id: VarId) -> (f64, f64) {
        self.input_bounds[id.index()]
    }

    /// Universe bounds of output `id`.
    #[must_use]
    pub fn output_bounds(&self, id: VarId) -> (f64, f64) {
        self.output_bounds[id.index()]
    }

    /// Resolve an input variable name to its interned handle.
    #[must_use]
    pub fn input_id(&self, name: &str) -> Option<VarId> {
        self.input_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u16))
    }

    /// Resolve an output variable name to its interned handle.
    #[must_use]
    pub fn output_id(&self, name: &str) -> Option<VarId> {
        self.output_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u16))
    }

    /// Resolve an input term name to its interned handle.
    #[must_use]
    pub fn input_term_id(&self, var: VarId, name: &str) -> Option<TermId> {
        let lo = self.input_term_offsets[var.index()] as usize;
        let hi = self.input_term_offsets[var.index() + 1] as usize;
        self.input_term_names[lo..hi]
            .iter()
            .position(|n| n == name)
            .map(|t| TermId {
                var: var.0,
                term: t as u16,
            })
    }

    /// Override the crisp value reported for output `id` when no rule fires
    /// (default: the universe midpoint, matching what the interpreted
    /// centroid degenerates to on an empty set).
    pub fn set_empty_default(&mut self, id: VarId, value: f64) {
        self.empty_defaults[id.index()] = value;
    }

    /// Allocate a [`Scratch`] sized for this engine.
    #[must_use]
    pub fn scratch(&self) -> Scratch {
        Scratch {
            fuzzified: vec![0.0; self.mfs.len()],
            strengths: vec![0.0; self.rule_weights.len()],
            candidates: vec![0; self.rule_weights.len()],
            term_strengths: vec![0.0; self.output_term_names.len()],
            aggregated: vec![0.0; self.output_bounds.len() * self.resolution],
            crisp: vec![0.0; self.output_bounds.len()],
            resolution: self.resolution,
        }
    }

    /// Run one inference into caller-owned scratch memory and return the
    /// crisp outputs (one per output variable, declaration order).
    ///
    /// This is the steady-state hot path: after [`CompiledEngine::scratch`]
    /// has been allocated, **no heap allocation happens here**, and for any
    /// inputs inside the declared universes the results are bit-identical
    /// to [`MamdaniEngine::infer`] followed by the configured defuzzifier.
    ///
    /// Out-of-universe inputs are clamped (as [`LinguisticVariable::fuzzify`]
    /// does); a NaN input yields zero membership everywhere, so the affected
    /// outputs fall back to their empty defaults instead of erroring.
    ///
    /// # Panics
    /// Panics when `inputs` does not match the declared arity or `scratch`
    /// was created for a different engine shape.
    pub fn infer_into<'s>(&self, inputs: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        assert_eq!(
            inputs.len(),
            self.input_bounds.len(),
            "compiled engine expects {} inputs, got {}",
            self.input_bounds.len(),
            inputs.len()
        );
        assert!(
            scratch.fuzzified.len() == self.mfs.len()
                && scratch.strengths.len() == self.rule_weights.len()
                && scratch.candidates.len() == self.rule_weights.len()
                && scratch.term_strengths.len() == self.output_term_names.len()
                && scratch.aggregated.len() == self.output_bounds.len() * self.resolution
                && scratch.crisp.len() == self.output_bounds.len()
                && scratch.resolution == self.resolution,
            "scratch was created for a different engine shape"
        );

        // Fuzzify every input once (clamped into its universe, exactly as
        // LinguisticVariable::fuzzify does), recording the non-zero terms
        // for the rule masks.
        let mut active = 0u64;
        for (i, (&raw, &(lo, hi))) in inputs.iter().zip(&self.input_bounds).enumerate() {
            let x = raw.clamp(lo, hi);
            let start = self.input_term_offsets[i] as usize;
            let end = self.input_term_offsets[i + 1] as usize;
            for t in start..end {
                let mu = self.mfs[t].membership(x);
                scratch.fuzzified[t] = mu;
                if t < 64 && mu != 0.0 {
                    active |= 1 << t;
                }
            }
        }

        scratch.aggregated.fill(0.0);
        if self.fast_max_aggregation {
            // Max aggregation commutes with clipping/scaling, so instead of
            // one array pass per fired *rule* we take the max strength per
            // consequent *term* and do one array pass per fired term —
            // exact (max/min/mul are monotone), and typically 2–4x fewer
            // passes for the paper's 63-rule FRB1.
            scratch.term_strengths.fill(0.0);
            let listed = self.screen_rules(active, &mut scratch.strengths, &mut scratch.candidates);
            for &r in &scratch.candidates[..listed] {
                let strength = self.firing_strength(r, &scratch.fuzzified) * self.rule_weights[r];
                scratch.strengths[r] = strength;
                if strength == 0.0 {
                    continue;
                }
                let height = clamp_degree(strength);
                for c in self.cons_range(r) {
                    let flat = self.consequents[c].flat_term as usize;
                    scratch.term_strengths[flat] = scratch.term_strengths[flat].max(height);
                }
            }
            for out in 0..self.output_bounds.len() {
                let agg_start = out * self.resolution;
                let term_lo = self.output_term_offsets[out] as usize;
                let term_hi = self.output_term_offsets[out + 1] as usize;
                for flat in term_lo..term_hi {
                    let height = scratch.term_strengths[flat];
                    if height == 0.0 {
                        continue;
                    }
                    // Only the term's support window: outside it the step
                    // is `max(a, +0)`, a no-op (see the module docs).
                    let (lo, hi) = self.term_window(flat);
                    let samples_start = flat * self.resolution;
                    let samples = &self.term_samples[samples_start + lo..samples_start + hi];
                    let agg = &mut scratch.aggregated[agg_start + lo..agg_start + hi];
                    // `SNorm::Maximum.apply` is `max` plus degree clamps;
                    // every operand here is already in [0, 1] and never
                    // NaN, so compare-selects are bit-identical and skip
                    // `f64::max`/`f64::min`'s NaN handling.
                    match self.implication {
                        Implication::Clip => {
                            for (a, &s) in agg.iter_mut().zip(samples) {
                                *a = max_degree(*a, min_degree(s, height));
                            }
                        }
                        Implication::Scale => {
                            for (a, &s) in agg.iter_mut().zip(samples) {
                                *a = max_degree(*a, s * height);
                            }
                        }
                    }
                }
            }
        } else {
            // General path: aggregate per fired rule, in rule-base order —
            // the exact operation sequence of the interpreted engine.
            let listed = self.screen_rules(active, &mut scratch.strengths, &mut scratch.candidates);
            for &r in &scratch.candidates[..listed] {
                let strength = self.firing_strength(r, &scratch.fuzzified) * self.rule_weights[r];
                scratch.strengths[r] = strength;
                if strength == 0.0 {
                    continue;
                }
                let height = clamp_degree(strength);
                for c in self.cons_range(r) {
                    let cons = self.consequents[c];
                    let agg_start = cons.out as usize * self.resolution;
                    let samples = &self.term_samples[cons.flat_term as usize * self.resolution..];
                    let agg = &mut scratch.aggregated[agg_start..agg_start + self.resolution];
                    match self.implication {
                        Implication::Clip => {
                            for (a, &s) in agg.iter_mut().zip(samples) {
                                *a = self.aggregation.apply(*a, s.min(height));
                            }
                        }
                        Implication::Scale => {
                            for (a, &s) in agg.iter_mut().zip(samples) {
                                *a = self.aggregation.apply(*a, s * height);
                            }
                        }
                    }
                }
            }
        }

        let windowed_centroid =
            self.fast_max_aggregation && self.defuzzifier == Defuzzifier::Centroid;
        for out in 0..self.output_bounds.len() {
            let agg = &scratch.aggregated[out * self.resolution..(out + 1) * self.resolution];
            let xs = &self.xs[out * self.resolution..(out + 1) * self.resolution];
            let (min, max) = self.output_bounds[out];
            // Outside the fired windows the set is exactly `+0.0`, so the
            // empty check and the centroid can skip it (see the module
            // docs); every other combination runs over the full grid.
            let window = if windowed_centroid {
                self.fired_window(out, &scratch.term_strengths)
            } else {
                0..self.resolution
            };
            scratch.crisp[out] = if agg[window.clone()].iter().all(|&d| d == 0.0) {
                self.empty_defaults[out]
            } else if windowed_centroid {
                centroid(agg, xs, window, min, max)
            } else {
                defuzzify_slice(self.defuzzifier, agg, xs, min, max)
            };
        }
        &scratch.crisp
    }

    /// Support window of flat output term `flat`, as sample indices.
    #[inline]
    fn term_window(&self, flat: usize) -> (usize, usize) {
        let (lo, hi) = self.term_windows[flat];
        (lo as usize, hi as usize)
    }

    /// The smallest sample range covering the support windows of output
    /// `out`'s fired terms (per the max-aggregation `term_strengths`);
    /// empty when no term with a non-empty window fired.
    #[inline]
    fn fired_window(&self, out: usize, term_strengths: &[f64]) -> std::ops::Range<usize> {
        let terms =
            self.output_term_offsets[out] as usize..self.output_term_offsets[out + 1] as usize;
        let (mut lo, mut hi) = (self.resolution, 0);
        for (&strength, &(term_lo, term_hi)) in term_strengths[terms.clone()]
            .iter()
            .zip(&self.term_windows[terms])
        {
            if strength != 0.0 && term_lo < term_hi {
                lo = lo.min(term_lo as usize);
                hi = hi.max(term_hi as usize);
            }
        }
        lo.min(hi)..hi
    }

    /// Convenience wrapper over [`CompiledEngine::infer_into`] that
    /// allocates a fresh [`Scratch`] — handy in tests, not for hot paths.
    #[must_use]
    pub fn infer(&self, inputs: &[f64]) -> Vec<f64> {
        let mut scratch = self.scratch();
        self.infer_into(inputs, &mut scratch).to_vec()
    }

    #[inline]
    fn cons_range(&self, rule: usize) -> std::ops::Range<usize> {
        self.rule_cons_offsets[rule] as usize..self.rule_cons_offsets[rule + 1] as usize
    }

    /// Give every rule the strength `0.0 * weight` its fold returns when
    /// one of its terms is inactive, and list in `candidates` the rules
    /// whose mask the `active` terms cover — the only ones the fold can
    /// fire (see [Active rules](self#active-rules)).  Returns how many
    /// were listed.  Branch-free, so the outcome pattern of the masks
    /// costs no mispredictions.
    #[inline]
    fn screen_rules(&self, active: u64, strengths: &mut [f64], candidates: &mut [usize]) -> usize {
        let mut listed = 0;
        for (r, ((&mask, &weight), strength)) in self
            .rule_masks
            .iter()
            .zip(&self.rule_weights)
            .zip(strengths.iter_mut())
            .enumerate()
        {
            *strength = 0.0 * weight;
            candidates[listed] = r;
            listed += usize::from(active & mask == mask);
        }
        listed
    }

    /// Incremental fold matching `TNorm::fold` / `SNorm::fold` bit for bit.
    ///
    /// Folds stop early at the norm's absorbing element (`T(0, x) = 0` for
    /// every t-norm, `S(1, x) = 1` for every s-norm — the boundary
    /// conditions the norms module tests).  The rule masks already skip
    /// the AND rules that would stop on a zero degree, so this mostly
    /// matters for the unmasked rules (see [Active rules](self#active-rules)).
    #[inline]
    fn firing_strength(&self, rule: usize, fuzzified: &[f64]) -> f64 {
        let lo = self.rule_ante_offsets[rule] as usize;
        let hi = self.rule_ante_offsets[rule + 1] as usize;
        match self.rule_connectives[rule] {
            Connective::And => {
                let min_norm = self.and_norm == TNorm::Minimum;
                let mut acc: f64 = 1.0;
                for a in &self.antecedents[lo..hi] {
                    let mut mu = fuzzified[a.slot as usize];
                    if a.negated {
                        mu = complement(mu);
                    }
                    // Membership degrees are already clamped, so the
                    // minimum t-norm reduces to a plain `min`.
                    acc = if min_norm {
                        acc.min(mu)
                    } else {
                        self.and_norm.apply(acc, mu)
                    };
                    if acc == 0.0 {
                        return 0.0;
                    }
                }
                acc
            }
            Connective::Or => {
                let max_norm = self.or_norm == SNorm::Maximum;
                let mut acc: f64 = 0.0;
                for a in &self.antecedents[lo..hi] {
                    let mut mu = fuzzified[a.slot as usize];
                    if a.negated {
                        mu = complement(mu);
                    }
                    // Early exit at the absorbing element is only
                    // bit-exact for the max norm (e.g. the probabilistic
                    // sum of 1 and b rounds, it does not short-circuit).
                    if max_norm {
                        acc = acc.max(mu);
                        if acc == 1.0 {
                            return 1.0;
                        }
                    } else {
                        acc = self.or_norm.apply(acc, mu);
                    }
                }
                acc
            }
        }
    }
}

impl MamdaniEngine {
    /// Lower this engine into an allocation-free [`CompiledEngine`] (the
    /// compile half of the compile/execute split — see the
    /// [`compile`](crate::compile) module docs).
    pub fn compile(&self) -> Result<CompiledEngine> {
        CompiledEngine::compile(self)
    }
}

/// `max` of two membership degrees as a compare-select (no NaN operand
/// can reach it); `a` is kept on a tie.
#[inline]
fn max_degree(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// `min` of a sampled degree and a positive fired height as a
/// compare-select; the two never tie at a signed zero, so this is
/// `f64::min` bit for bit.
#[inline]
fn min_degree(sample: f64, height: f64) -> f64 {
    if sample < height {
        sample
    } else {
        height
    }
}

fn as_u32(n: usize) -> u32 {
    u32::try_from(n).expect("compiled engine index spaces fit in u32")
}

/// The `[lo, hi)` range of `samples` outside of which every sample is
/// `+0.0`, by bits — a `-0.0` sample counts as inside.  `(0, 0)` when
/// every sample is `+0.0`.
fn support_window(samples: &[f64]) -> (u32, u32) {
    let inside = |s: &f64| s.to_bits() != 0;
    match samples.iter().position(inside) {
        Some(lo) => {
            let hi = samples.iter().rposition(inside).map_or(lo, |i| i + 1);
            (as_u32(lo), as_u32(hi))
        }
        None => (0, 0),
    }
}

/// Centroid of the sampled set `degrees` over the sample range `window`,
/// with the exact operation sequence of `defuzz::centroid` (end points get
/// half weight).  The samples outside `window` must all be `±0.0`: they
/// would only add `±0` to sums that start at `+0.0`, which leaves them
/// bitwise unchanged, so the result is the full-grid centroid.
fn centroid(
    degrees: &[f64],
    xs: &[f64],
    window: std::ops::Range<usize>,
    min: f64,
    max: f64,
) -> f64 {
    let n = degrees.len();
    // The interior branch of the reference fold is hoisted out of the
    // loop — `1.0 * mu * x` and `mu * x` are the same bits, and the
    // `0.0 + v` first additions keep the signed-zero bits of the original
    // fold.
    let mut num = 0.0;
    let mut den = 0.0;
    if window.start == 0 {
        num += 0.5 * degrees[0] * xs[0];
        den += 0.5 * degrees[0];
    }
    for i in window.start.max(1)..window.end.min(n - 1) {
        let mu = degrees[i];
        num += mu * xs[i];
        den += mu;
    }
    if window.end == n {
        num += 0.5 * degrees[n - 1] * xs[n - 1];
        den += 0.5 * degrees[n - 1];
    }
    if den == 0.0 {
        0.5 * (min + max)
    } else {
        num / den
    }
}

/// Defuzzify a sampled set with the exact operation sequence of
/// [`Defuzzifier::defuzzify`] on a [`crate::FuzzySet`], operating on the
/// pre-computed grid instead of recomputing `x_at` per sample.
///
/// The caller has already handled the empty-set case.
fn defuzzify_slice(method: Defuzzifier, degrees: &[f64], xs: &[f64], min: f64, max: f64) -> f64 {
    let n = degrees.len();
    match method {
        Defuzzifier::Centroid => centroid(degrees, xs, 0..n, min, max),
        Defuzzifier::Bisector => {
            let total: f64 = degrees.iter().sum();
            if total == 0.0 {
                return 0.5 * (min + max);
            }
            let half = total / 2.0;
            let mut acc: f64 = 0.0;
            for i in 0..n {
                acc += degrees[i];
                if acc >= half {
                    return xs[i];
                }
            }
            max
        }
        Defuzzifier::MeanOfMaxima => {
            let h = height(degrees);
            let mut sum = 0.0;
            let mut count = 0usize;
            for i in 0..n {
                if (degrees[i] - h).abs() <= MAXIMA_TOL {
                    sum += xs[i];
                    count += 1;
                }
            }
            sum / count as f64
        }
        Defuzzifier::SmallestOfMaxima => {
            let h = height(degrees);
            for i in 0..n {
                if (degrees[i] - h).abs() <= MAXIMA_TOL {
                    return xs[i];
                }
            }
            max
        }
        Defuzzifier::LargestOfMaxima => {
            let h = height(degrees);
            for i in (0..n).rev() {
                if (degrees[i] - h).abs() <= MAXIMA_TOL {
                    return xs[i];
                }
            }
            min
        }
        // Defuzzifier is #[non_exhaustive]; mirror any future method here.
        #[allow(unreachable_patterns)]
        _ => unreachable!("unknown defuzzifier variant"),
    }
}

/// Tolerance used by `defuzz::maxima_indices`.
const MAXIMA_TOL: f64 = 1e-12;

fn height(degrees: &[f64]) -> f64 {
    degrees.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::LinguisticVariable;

    fn fan_engine() -> MamdaniEngine {
        let temperature = LinguisticVariable::builder("temperature", 0.0, 40.0)
            .triangle("Cold", 0.0, 0.0, 20.0)
            .triangle("Warm", 10.0, 20.0, 30.0)
            .triangle("Hot", 20.0, 40.0, 40.0)
            .build()
            .unwrap();
        let humidity = LinguisticVariable::builder("humidity", 0.0, 100.0)
            .triangle("Dry", 0.0, 0.0, 50.0)
            .triangle("Humid", 50.0, 100.0, 100.0)
            .build()
            .unwrap();
        let fan = LinguisticVariable::builder("fan", 0.0, 100.0)
            .triangle("Slow", 0.0, 0.0, 50.0)
            .triangle("Medium", 25.0, 50.0, 75.0)
            .triangle("Fast", 50.0, 100.0, 100.0)
            .build()
            .unwrap();
        let mut e = MamdaniEngine::builder()
            .input(temperature)
            .input(humidity)
            .output(fan)
            .build()
            .unwrap();
        e.add_rules_str([
            "IF temperature IS Hot AND humidity IS Humid THEN fan IS Fast",
            "IF temperature IS Hot AND humidity IS Dry THEN fan IS Medium",
            "IF temperature IS Warm THEN fan IS Medium",
            "IF temperature IS Cold THEN fan IS Slow",
            "IF temperature IS NOT Cold OR humidity IS Humid THEN fan IS Medium",
        ])
        .unwrap();
        e
    }

    #[test]
    fn compile_requires_rules() {
        let t = LinguisticVariable::builder("t", 0.0, 1.0)
            .triangle("x", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let o = LinguisticVariable::builder("o", 0.0, 1.0)
            .triangle("y", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let e = MamdaniEngine::builder().input(t).output(o).build().unwrap();
        assert!(matches!(
            e.compile(),
            Err(FuzzyError::EmptyEngine { missing: "rules" })
        ));
    }

    #[test]
    fn compiled_shape_matches_engine() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.output_count(), 1);
        assert_eq!(c.rule_count(), 5);
        assert_eq!(c.resolution(), e.resolution());
        let fan = c.output_id("fan").unwrap();
        assert_eq!(fan.index(), 0);
        assert_eq!(c.output_bounds(fan), (0.0, 100.0));
        let temp = c.input_id("temperature").unwrap();
        assert_eq!(c.input_bounds(temp), (0.0, 40.0));
        let hot = c.input_term_id(temp, "Hot").unwrap();
        assert_eq!(hot.var(), temp);
        assert_eq!(hot.term_index(), 2);
        assert!(c.input_id("pressure").is_none());
        assert!(c.input_term_id(temp, "Boiling").is_none());
    }

    #[test]
    fn compiled_matches_interpreted_bit_for_bit() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        let mut scratch = c.scratch();
        for t in 0..=40 {
            for h in 0..=20 {
                let inputs = [f64::from(t), f64::from(h) * 5.0];
                let compiled = c.infer_into(&inputs, &mut scratch)[0];
                let interpreted = e.infer(&inputs).unwrap().crisp("fan").unwrap();
                assert_eq!(
                    compiled.to_bits(),
                    interpreted.to_bits(),
                    "divergence at {inputs:?}: {compiled} vs {interpreted}"
                );
            }
        }
    }

    #[test]
    fn firing_strengths_match_interpreted() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        let mut scratch = c.scratch();
        let inputs = [33.0, 80.0];
        c.infer_into(&inputs, &mut scratch);
        let reference = e.infer(&inputs).unwrap();
        assert_eq!(scratch.firing_strengths(), reference.firing_strengths());
    }

    #[test]
    fn slow_path_matches_interpreted_for_probabilistic_sum() {
        // ProbabilisticSum aggregation disables the per-term fast path.
        let mut e = {
            let b = MamdaniEngine::builder();
            let src = fan_engine();
            let mut b2 = b;
            for v in src.inputs() {
                b2 = b2.input(v.clone());
            }
            for v in src.outputs() {
                b2 = b2.output(v.clone());
            }
            b2.aggregation(SNorm::ProbabilisticSum).build().unwrap()
        };
        e.add_rules_str([
            "IF temperature IS Hot THEN fan IS Fast",
            "IF temperature IS Warm THEN fan IS Medium",
            "IF temperature IS Hot AND humidity IS Humid THEN fan IS Fast",
        ])
        .unwrap();
        let c = e.compile().unwrap();
        assert!(!c.fast_max_aggregation);
        let mut scratch = c.scratch();
        for t in 0..=40 {
            let inputs = [f64::from(t), 75.0];
            let compiled = c.infer_into(&inputs, &mut scratch)[0];
            // No rule fires at cold temperatures; the compiled empty
            // default is the universe midpoint (50), mirror it here.
            let interpreted = e.infer(&inputs).unwrap().crisp_or("fan", 50.0);
            assert_eq!(compiled.to_bits(), interpreted.to_bits());
        }
    }

    #[test]
    fn scale_implication_matches_interpreted() {
        let mut e = {
            let src = fan_engine();
            let mut b = MamdaniEngine::builder();
            for v in src.inputs() {
                b = b.input(v.clone());
            }
            for v in src.outputs() {
                b = b.output(v.clone());
            }
            b.implication(Implication::Scale).build().unwrap()
        };
        e.add_rules_str([
            "IF temperature IS Hot THEN fan IS Fast",
            "IF temperature IS Cold THEN fan IS Slow",
            "IF temperature IS Warm THEN fan IS Medium",
        ])
        .unwrap();
        let c = e.compile().unwrap();
        let mut scratch = c.scratch();
        for t in 0..=80 {
            let inputs = [f64::from(t) / 2.0, 40.0];
            let compiled = c.infer_into(&inputs, &mut scratch)[0];
            let interpreted = e.infer(&inputs).unwrap().crisp("fan").unwrap();
            assert_eq!(compiled.to_bits(), interpreted.to_bits());
        }
    }

    #[test]
    fn all_defuzzifiers_match_interpreted() {
        for method in [
            Defuzzifier::Centroid,
            Defuzzifier::Bisector,
            Defuzzifier::MeanOfMaxima,
            Defuzzifier::SmallestOfMaxima,
            Defuzzifier::LargestOfMaxima,
        ] {
            let mut e = {
                let src = fan_engine();
                let mut b = MamdaniEngine::builder();
                for v in src.inputs() {
                    b = b.input(v.clone());
                }
                for v in src.outputs() {
                    b = b.output(v.clone());
                }
                b.defuzzifier(method).build().unwrap()
            };
            e.add_rules_str([
                "IF temperature IS Hot THEN fan IS Fast",
                "IF temperature IS Cold THEN fan IS Slow",
                "IF temperature IS Warm THEN fan IS Medium",
            ])
            .unwrap();
            let c = e.compile().unwrap();
            let mut scratch = c.scratch();
            for t in 0..=40 {
                let inputs = [f64::from(t), 50.0];
                let compiled = c.infer_into(&inputs, &mut scratch)[0];
                let interpreted = e.infer(&inputs).unwrap().crisp("fan").unwrap();
                assert_eq!(
                    compiled.to_bits(),
                    interpreted.to_bits(),
                    "{method:?} at {t}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_inputs_are_clamped_like_fuzzify() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        let mut scratch = c.scratch();
        let clamped = c.infer_into(&[500.0, -3.0], &mut scratch)[0];
        let reference = e.infer(&[40.0, 0.0]).unwrap().crisp("fan").unwrap();
        assert_eq!(clamped.to_bits(), reference.to_bits());
    }

    #[test]
    fn empty_output_uses_configured_default() {
        // An engine whose single rule cannot fire at the probed input.
        let t = LinguisticVariable::builder("t", 0.0, 10.0)
            .triangle("low", 0.0, 0.0, 2.0)
            .triangle("high", 8.0, 10.0, 10.0)
            .build()
            .unwrap();
        let o = LinguisticVariable::builder("o", 0.0, 1.0)
            .triangle("yes", 0.0, 1.0, 1.0)
            .build()
            .unwrap();
        let mut e = MamdaniEngine::builder().input(t).output(o).build().unwrap();
        e.add_rule_str("IF t IS high THEN o IS yes").unwrap();
        let mut c = e.compile().unwrap();
        let mut scratch = c.scratch();
        // Default fallback: the universe midpoint.
        assert_eq!(c.infer_into(&[1.0], &mut scratch)[0], 0.5);
        c.set_empty_default(c.output_id("o").unwrap(), -7.0);
        assert_eq!(c.infer_into(&[1.0], &mut scratch)[0], -7.0);
        // Matches crisp_or with the same default.
        let interpreted = e.infer(&[1.0]).unwrap().crisp_or("o", -7.0);
        assert_eq!(c.infer_into(&[1.0], &mut scratch)[0], interpreted);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_arity_panics() {
        let c = fan_engine().compile().unwrap();
        let mut scratch = c.scratch();
        let _ = c.infer_into(&[1.0], &mut scratch);
    }

    #[test]
    #[should_panic(expected = "different engine shape")]
    fn foreign_scratch_panics() {
        let c = fan_engine().compile().unwrap();
        let t = LinguisticVariable::builder("t", 0.0, 1.0)
            .triangle("x", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let o = LinguisticVariable::builder("o", 0.0, 1.0)
            .triangle("y", 0.0, 0.5, 1.0)
            .build()
            .unwrap();
        let mut other = MamdaniEngine::builder().input(t).output(o).build().unwrap();
        other.add_rule_str("IF t IS x THEN o IS y").unwrap();
        let mut foreign = other.compile().unwrap().scratch();
        let _ = c.infer_into(&[1.0, 1.0], &mut foreign);
    }

    /// `c` with every support window widened to the full grid: the
    /// full-grid kernel the windows must reproduce bit for bit.
    fn full_grid(c: &CompiledEngine) -> CompiledEngine {
        let mut full = c.clone();
        let n = as_u32(full.resolution);
        full.term_windows.fill((0, n));
        full
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], context: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{context}");
    }

    #[test]
    fn support_window_keeps_negative_zero_inside() {
        assert_eq!(support_window(&[0.0, -0.0, 0.5, 0.0]), (1, 3));
        assert_eq!(support_window(&[0.25, 0.0, 0.0, -0.0]), (0, 4));
        assert_eq!(support_window(&[-0.0]), (0, 1));
        assert_eq!(support_window(&[0.0, 0.0]), (0, 0));
    }

    #[test]
    fn aggregated_set_matches_interpreted_bit_for_bit() {
        let e = fan_engine();
        let c = e.compile().unwrap();
        let fan = c.output_id("fan").unwrap();
        let mut scratch = c.scratch();
        for t in 0..=40 {
            for h in 0..=10 {
                let inputs = [f64::from(t) + 0.3, f64::from(h) * 9.7];
                c.infer_into(&inputs, &mut scratch);
                let reference = e.infer(&inputs).unwrap();
                assert_bits_eq(
                    scratch.aggregated(fan),
                    reference.aggregated("fan").unwrap().degrees(),
                    &format!("aggregated set at {inputs:?}"),
                );
            }
        }
    }

    #[test]
    fn windows_reaching_both_ends_keep_endpoint_half_weights() {
        let t = LinguisticVariable::builder("t", 0.0, 10.0)
            .triangle("cold", 0.0, 0.0, 5.0)
            .triangle("mild", 2.0, 5.0, 8.0)
            .triangle("hot", 5.0, 10.0, 10.0)
            .build()
            .unwrap();
        let o = LinguisticVariable::builder("o", -4.0, 6.0)
            .left_shoulder("low", -2.0, 1.0)
            .trapezoid("all", -4.0, -4.0, 6.0, 6.0)
            .right_shoulder("high", 1.0, 4.0)
            .build()
            .unwrap();
        let mut e = MamdaniEngine::builder().input(t).output(o).build().unwrap();
        e.add_rules_str([
            "IF t IS cold THEN o IS low",
            "IF t IS mild THEN o IS all",
            "IF t IS hot THEN o IS high",
        ])
        .unwrap();
        let c = e.compile().unwrap();
        let n = c.resolution();
        // `low` starts at sample 0, `high` ends at sample n - 1, and `all`
        // spans the whole grid.
        assert_eq!(c.term_window(0).0, 0);
        assert!(c.term_window(0).1 < n);
        assert_eq!(c.term_window(1), (0, n));
        assert!(c.term_window(2).0 > 0);
        assert_eq!(c.term_window(2).1, n);

        let full = full_grid(&c);
        let o_id = c.output_id("o").unwrap();
        let (mut scratch, mut full_scratch) = (c.scratch(), full.scratch());
        for step in 0..=100 {
            let inputs = [f64::from(step) * 0.1];
            let crisp = c.infer_into(&inputs, &mut scratch)[0];
            let full_crisp = full.infer_into(&inputs, &mut full_scratch)[0];
            let reference = e.infer(&inputs).unwrap();
            let interpreted = reference.crisp_or("o", 1.0);
            assert_eq!(crisp.to_bits(), interpreted.to_bits(), "t = {inputs:?}");
            assert_eq!(crisp.to_bits(), full_crisp.to_bits(), "t = {inputs:?}");
            assert_bits_eq(
                scratch.aggregated(o_id),
                reference.aggregated("o").unwrap().degrees(),
                &format!("aggregated set at t = {inputs:?}"),
            );
        }
    }

    #[test]
    fn scale_products_that_all_underflow_give_the_empty_default() {
        let t = LinguisticVariable::builder("t", 0.0, 1.0)
            .triangle("on", 0.0, 1.0, 1.0)
            .build()
            .unwrap();
        // A gaussian centred far outside the universe: every sample is a
        // tiny positive degree (~1e-87 to ~1e-79), so the term's window is
        // the whole grid.
        let o = LinguisticVariable::builder("o", 0.0, 1.0)
            .gaussian("faint", 20.0, 1.0)
            .build()
            .unwrap();
        let mut e = MamdaniEngine::builder()
            .input(t)
            .output(o)
            .implication(Implication::Scale)
            .build()
            .unwrap();
        e.add_rule(
            crate::rule::Rule::parse("IF t IS on THEN o IS faint")
                .unwrap()
                .with_weight(1e-250)
                .unwrap(),
        )
        .unwrap();
        let c = e.compile().unwrap();
        assert_eq!(c.term_window(0), (0, c.resolution()));
        let o_id = c.output_id("o").unwrap();
        let mut scratch = c.scratch();
        // The rule fires (height 1e-250), but every `sample * height`
        // underflows to +0.0: the set is empty and the default applies.
        let crisp = c.infer_into(&[1.0], &mut scratch)[0];
        assert!(scratch.firing_strengths()[0] > 0.0);
        assert!(scratch.aggregated(o_id).iter().all(|d| d.to_bits() == 0));
        assert_eq!(crisp, 0.5);
        let interpreted = e.infer(&[1.0]).unwrap().crisp_or("o", 0.5);
        assert_eq!(crisp.to_bits(), interpreted.to_bits());
    }

    #[test]
    fn negative_zero_sample_stays_inside_its_window() {
        let e = fan_engine();
        let mut c = e.compile().unwrap();
        let n = c.resolution();
        // Plant a -0.0 sample in `Fast` (flat term 2), far left of its
        // natural support [50, 100].
        let fast = 2 * n;
        let natural = c.term_window(2);
        assert!(natural.0 > 3);
        c.term_samples[fast + 3] = -0.0;
        c.term_windows[2] = support_window(&c.term_samples[fast..fast + n]);
        assert_eq!(c.term_window(2), (3, natural.1));

        let full = full_grid(&c);
        let fan = c.output_id("fan").unwrap();
        let (mut scratch, mut full_scratch) = (c.scratch(), full.scratch());
        for t in 0..=40 {
            for h in [0.0, 35.0, 80.0] {
                let inputs = [f64::from(t), h];
                let crisp = c.infer_into(&inputs, &mut scratch)[0];
                let full_crisp = full.infer_into(&inputs, &mut full_scratch)[0];
                assert_eq!(crisp.to_bits(), full_crisp.to_bits(), "at {inputs:?}");
                assert_bits_eq(
                    scratch.aggregated(fan),
                    full_scratch.aggregated(fan),
                    &format!("aggregated set at {inputs:?}"),
                );
            }
        }
    }

    /// `n` evenly spaced, overlapping triangles `t0 .. t{n-1}` over
    /// `[0, 1]`: at most two terms are non-zero at any input.
    fn partition(name: &str, n: usize) -> LinguisticVariable {
        let step = 1.0 / (n - 1) as f64;
        let mut b = LinguisticVariable::builder(name, 0.0, 1.0);
        for k in 0..n {
            let peak = k as f64 * step;
            b = b.triangle(&format!("t{k}"), peak - step, peak, peak + step);
        }
        b.build().unwrap()
    }

    fn weighted(text: &str, weight: f64) -> crate::rule::Rule {
        crate::rule::Rule::parse(text)
            .unwrap()
            .with_weight(weight)
            .unwrap()
    }

    /// Deterministic uniform draws in `[0, 1)` (SplitMix64).
    fn unit_draws(seed: u64) -> impl Iterator<Item = f64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        })
    }

    /// Crisp output, `Scratch::firing_strengths` and `Scratch::aggregated`
    /// of `c` against the interpreted `e`, bit for bit, at `inputs`.
    fn assert_rule_loop_exact(
        e: &MamdaniEngine,
        c: &CompiledEngine,
        scratch: &mut Scratch,
        inputs: &[f64],
    ) {
        let out = VarId::from_index(0);
        let (min, max) = c.output_bounds(out);
        let name = e.outputs()[0].name();
        let crisp = c.infer_into(inputs, scratch)[0];
        let reference = e.infer(inputs).unwrap();
        assert_eq!(
            crisp.to_bits(),
            reference.crisp_or(name, 0.5 * (min + max)).to_bits(),
            "crisp output at {inputs:?}"
        );
        assert_bits_eq(
            scratch.firing_strengths(),
            reference.firing_strengths(),
            &format!("firing strengths at {inputs:?}"),
        );
        assert_bits_eq(
            scratch.aggregated(out),
            reference.aggregated(name).unwrap().degrees(),
            &format!("aggregated set at {inputs:?}"),
        );
    }

    /// Rules the active-rule screen must not skip on a zero degree (OR,
    /// negated antecedents) next to maskable AND rules, with weights of
    /// 0 and 0.5.
    fn mixed_shape_engine(and_norm: TNorm, aggregation: SNorm) -> MamdaniEngine {
        let mut e = MamdaniEngine::builder()
            .input(partition("x", 3))
            .input(partition("y", 4))
            .input(partition("z", 3))
            .output(partition("o", 5))
            .and_norm(and_norm)
            .aggregation(aggregation)
            .build()
            .unwrap();
        for (text, weight) in [
            ("IF x IS t0 AND y IS t1 THEN o IS t0", 1.0),
            ("IF x IS t1 OR z IS t2 THEN o IS t2", 1.0),
            ("IF x IS NOT t2 AND y IS t3 THEN o IS t4", 1.0),
            ("IF y IS t0 AND z IS t1 THEN o IS t1", 0.5),
            ("IF x IS t2 AND y IS t2 AND z IS t0 THEN o IS t3", 0.0),
            ("IF z IS NOT t0 OR y IS t2 THEN o IS t1", 0.5),
            ("IF x IS t2 OR y IS t0 THEN o IS t3", 0.0),
        ] {
            e.add_rule(weighted(text, weight)).unwrap();
        }
        for i in 0..3 {
            for j in 0..3 {
                e.add_rule_str(&format!(
                    "IF x IS t{i} AND z IS t{j} THEN o IS t{}",
                    (i + j) % 5
                ))
                .unwrap();
            }
        }
        e
    }

    #[test]
    fn unmaskable_rule_shapes_match_interpreted_bit_for_bit() {
        for (and_norm, aggregation) in [
            (TNorm::Minimum, SNorm::Maximum),
            (TNorm::Product, SNorm::Maximum),
            (TNorm::Minimum, SNorm::ProbabilisticSum),
            (TNorm::Product, SNorm::ProbabilisticSum),
        ] {
            let e = mixed_shape_engine(and_norm, aggregation);
            let c = e.compile().unwrap();
            // Only plain AND rules carry a mask; OR rules and rules with a
            // negated antecedent always run the fold.
            let unmasked: Vec<usize> = (0..c.rule_count())
                .filter(|&r| c.rule_masks[r] == 0)
                .collect();
            assert_eq!(unmasked, vec![1, 2, 5, 6]);
            let mut scratch = c.scratch();
            // A dense lattice hits every peak and foot, so many degrees are
            // exactly zero; the draws land off the grid.
            for i in 0..=12 {
                for j in 0..=12 {
                    for k in 0..=12 {
                        let inputs = [i, j, k].map(|n| f64::from(n) / 12.0);
                        assert_rule_loop_exact(&e, &c, &mut scratch, &inputs);
                    }
                }
            }
            let mut draws = unit_draws(7);
            for _ in 0..2000 {
                let inputs = [(); 3].map(|()| draws.next().unwrap());
                assert_rule_loop_exact(&e, &c, &mut scratch, &inputs);
            }
        }
    }

    #[test]
    fn engines_over_64_input_terms_fold_every_rule() {
        let mut e = MamdaniEngine::builder()
            .input(partition("a", 22))
            .input(partition("b", 22))
            .input(partition("c", 22))
            .output(partition("o", 5))
            .and_norm(TNorm::Product)
            .build()
            .unwrap();
        for i in 0..22 {
            for j in [i, (i + 1) % 22] {
                e.add_rule_str(&format!(
                    "IF a IS t{i} AND b IS t{j} THEN o IS t{}",
                    (i + j) % 5
                ))
                .unwrap();
            }
            e.add_rule(weighted(&format!("IF c IS t{i} THEN o IS t{}", i % 5), 0.5))
                .unwrap();
        }
        e.add_rule_str("IF a IS t3 OR c IS t20 THEN o IS t4")
            .unwrap();
        e.add_rule_str("IF b IS NOT t0 AND c IS t1 THEN o IS t0")
            .unwrap();
        let c = e.compile().unwrap();
        assert_eq!(c.mfs.len(), 66);
        assert!(c.rule_masks.iter().all(|&m| m == 0), "masks must be off");
        let mut scratch = c.scratch();
        for i in 0..=42 {
            for j in 0..=42 {
                for z in [0.0, 0.37, 1.0] {
                    let inputs = [f64::from(i) / 42.0, f64::from(j) / 42.0, z];
                    assert_rule_loop_exact(&e, &c, &mut scratch, &inputs);
                }
            }
        }
        let mut draws = unit_draws(11);
        for _ in 0..1000 {
            let inputs = [(); 3].map(|()| draws.next().unwrap());
            assert_rule_loop_exact(&e, &c, &mut scratch, &inputs);
        }
    }

    #[test]
    fn convenience_infer_matches_infer_into() {
        let c = fan_engine().compile().unwrap();
        let mut scratch = c.scratch();
        let a = c.infer(&[30.0, 60.0]);
        let b = c.infer_into(&[30.0, 60.0], &mut scratch);
        assert_eq!(a.as_slice(), b);
    }
}
