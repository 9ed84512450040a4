//! Property-based tests for the signature layer.

use cwsmooth_core::baselines::{BodikMethod, LanMethod, TuncerMethod};
use cwsmooth_core::blocks::block_bounds;
use cwsmooth_core::cs::{CsMethod, CsTrainer};
use cwsmooth_core::method::SignatureMethod;
use cwsmooth_core::model::CsModel;
use cwsmooth_linalg::Matrix;
use proptest::prelude::*;

/// A training matrix: n rows, t >= 2 columns, finite values.
fn training_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..10, 2usize..40).prop_flat_map(|(n, t)| {
        prop::collection::vec(-1e4f64..1e4f64, n * t)
            .prop_map(move |data| Matrix::from_vec(n, t, data).unwrap())
    })
}

proptest! {
    #[test]
    fn blocks_cover_and_respect_bounds(n in 1usize..200, l in 1usize..200) {
        let blocks = block_bounds(n, l);
        prop_assert_eq!(blocks.len(), l);
        let mut covered = vec![false; n];
        for b in &blocks {
            prop_assert!(b.start < b.end && b.end <= n);
            for c in &mut covered[b.start..b.end] {
                *c = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn block_sizes_differ_by_at_most_one(n in 1usize..200, l in 1usize..200) {
        let blocks = block_bounds(n, l);
        let min = blocks.iter().map(|b| b.len()).min().unwrap();
        let max = blocks.iter().map(|b| b.len()).max().unwrap();
        prop_assert!(max - min <= 1, "n={n} l={l} min={min} max={max}");
    }

    #[test]
    fn training_yields_bijective_permutation(s in training_matrix()) {
        let model = CsTrainer::default().train(&s).unwrap();
        prop_assert!(model.validate().is_ok());
        prop_assert_eq!(model.n_sensors(), s.rows());
    }

    #[test]
    fn cs_signature_parts_bounded(s in training_matrix(), l in 1usize..12) {
        let model = CsTrainer::default().train(&s).unwrap();
        let cs = CsMethod::new(model, l).unwrap();
        let sig = cs.signature(&s, None).unwrap();
        prop_assert_eq!(sig.blocks(), l);
        for &v in &sig.re {
            // block means of normalized values stay in [0,1]
            prop_assert!((0.0..=1.0).contains(&v), "re={v}");
        }
        for &d in &sig.im {
            // normalized derivatives are bounded by 1 in magnitude, so are
            // their (time-and-block) means
            prop_assert!(d.abs() <= 1.0 + 1e-12, "im={d}");
        }
    }

    #[test]
    fn signature_length_laws(s in training_matrix(), l in 1usize..12, wr in 1usize..10) {
        let n = s.rows();
        let model = CsTrainer::default().train(&s).unwrap();
        let cs = CsMethod::new(model, l).unwrap();
        prop_assert_eq!(cs.compute(&s, None).unwrap().len(), cs.signature_len(n));
        prop_assert_eq!(TuncerMethod.compute(&s, None).unwrap().len(), 11 * n);
        prop_assert_eq!(BodikMethod.compute(&s, None).unwrap().len(), 9 * n);
        let lan = LanMethod::new(wr).unwrap();
        prop_assert_eq!(lan.compute(&s, None).unwrap().len(), wr * n);
    }

    #[test]
    fn cs_is_invariant_to_window_choice_of_constant_data(
        n in 1usize..6, wl in 2usize..20, value in -100.0f64..100.0
    ) {
        // A constant matrix trains fine and produces the "no information"
        // signature: re = 0.5, im = 0 in every block.
        let s = Matrix::filled(n, wl, value);
        let model = CsTrainer::default().train(&s).unwrap();
        let cs = CsMethod::new(model, n).unwrap();
        let sig = cs.signature(&s, None).unwrap();
        for &v in &sig.re {
            prop_assert!((v - 0.5).abs() < 1e-12);
        }
        for &d in &sig.im {
            prop_assert!(d.abs() < 1e-12);
        }
    }

    #[test]
    fn model_roundtrip_arbitrary(s in training_matrix()) {
        let model = CsTrainer::default().train(&s).unwrap();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let back = CsModel::load(buf.as_slice()).unwrap();
        prop_assert_eq!(back, model);
    }

    #[test]
    fn baseline_signatures_are_finite(s in training_matrix()) {
        for sig in [
            TuncerMethod.compute(&s, None).unwrap(),
            BodikMethod.compute(&s, None).unwrap(),
            LanMethod::default().compute(&s, None).unwrap(),
        ] {
            for v in sig {
                prop_assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn cs_handles_out_of_range_inference_data(s in training_matrix(), l in 1usize..6) {
        // Inference data far outside the training range must clamp, not blow up.
        let model = CsTrainer::default().train(&s).unwrap();
        let cs = CsMethod::new(model, l).unwrap();
        let mut wild = s.clone();
        wild.map_inplace(|v| v * 1e3 + 1e5);
        let sig = cs.signature(&wild, None).unwrap();
        for &v in &sig.re {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        for &d in &sig.im {
            prop_assert!(d.is_finite());
        }
    }

    #[test]
    fn sorted_window_is_a_row_permutation_of_normalized(s in training_matrix()) {
        let model = CsTrainer::default().train(&s).unwrap();
        let cs = CsMethod::new(model.clone(), 1).unwrap();
        let sorted = cs.sort_window(&s).unwrap();
        let normalized = model.bounds.apply(&s).unwrap();
        // every normalized row appears exactly once in the sorted output
        for (i, &raw) in model.perm.iter().enumerate() {
            prop_assert_eq!(sorted.row(i), normalized.row(raw));
        }
    }
}

/// Properties of the extension modules: rescaling, pruning, streaming.
mod extensions {
    use super::*;
    use cwsmooth_core::cs::CsSignature;
    use cwsmooth_core::online::OnlineCs;
    use cwsmooth_core::scale::{prune_middle, resample_signature};
    use cwsmooth_data::WindowSpec;

    fn signature_strategy() -> impl Strategy<Value = CsSignature> {
        (1usize..24).prop_flat_map(|l| {
            (
                prop::collection::vec(0.0f64..1.0, l),
                prop::collection::vec(-1.0f64..1.0, l),
            )
                .prop_map(|(re, im)| CsSignature { re, im })
        })
    }

    proptest! {
        #[test]
        fn resample_length_and_hull(sig in signature_strategy(), new_l in 1usize..32) {
            let out = resample_signature(&sig, new_l).unwrap();
            prop_assert_eq!(out.blocks(), new_l);
            let lo = sig.re.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = sig.re.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for &v in &out.re {
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }

        #[test]
        fn downscale_preserves_mean(sig in signature_strategy(), new_l in 1usize..24) {
            // Area averaging conserves total mass when the target divides
            // the source evenly; in general the mean stays within the hull
            // and close to the original mean.
            prop_assume!(new_l <= sig.blocks());
            let out = resample_signature(&sig, new_l).unwrap();
            if sig.blocks() % new_l == 0 {
                let m_in: f64 = sig.re.iter().sum::<f64>() / sig.blocks() as f64;
                let m_out: f64 = out.re.iter().sum::<f64>() / new_l as f64;
                prop_assert!((m_in - m_out).abs() < 1e-9, "{m_in} vs {m_out}");
            }
        }

        #[test]
        fn prune_keeps_outer_blocks_verbatim(sig in signature_strategy(), keep in 1usize..24) {
            let out = prune_middle(&sig, keep).unwrap();
            let k = keep.min(sig.blocks());
            prop_assert_eq!(out.blocks(), k);
            let head = if keep >= sig.blocks() { k } else { keep.div_ceil(2) };
            for i in 0..head.min(k) {
                prop_assert_eq!(out.re[i], sig.re[i]);
            }
            if keep < sig.blocks() {
                let tail = keep - head;
                for i in 0..tail {
                    prop_assert_eq!(
                        out.re[head + i],
                        sig.re[sig.blocks() - tail + i]
                    );
                }
            }
        }

        #[test]
        fn online_emission_count_law(
            s in training_matrix(),
            wl in 1usize..12,
            ws in 1usize..12,
        ) {
            let model = CsTrainer::default().train(&s).unwrap();
            let cs = CsMethod::new(model, 2).unwrap();
            let spec = WindowSpec::new(wl, ws).unwrap();
            let mut online = OnlineCs::new(cs, spec);
            let mut emitted = 0usize;
            for c in 0..s.cols() {
                if online.push(&s.col(c)).unwrap().is_some() {
                    emitted += 1;
                }
            }
            prop_assert_eq!(emitted, spec.count(s.cols()));
        }
    }
}

/// Fleet/online streaming is *bit-identical* to the batch pipeline
/// (`WindowIter` + `CsMethod::signature`), per node, across gaps, for odd
/// window geometries and constant sensors.
mod streaming_equivalence {
    use super::*;
    use cwsmooth_core::cs::CsSignature;
    use cwsmooth_core::fleet::{FleetEngine, FleetEvent};
    use cwsmooth_core::online::OnlineCs;
    use cwsmooth_data::{WindowIter, WindowSpec};

    /// Batch-pipeline signatures of a full matrix.
    fn batch(cs: &CsMethod, s: &Matrix, spec: WindowSpec) -> Vec<CsSignature> {
        WindowIter::new(spec, s.cols())
            .map(|w| {
                let sub = w.extract(s).unwrap();
                let hist = w.history(s);
                cs.signature(&sub, hist.as_deref()).unwrap()
            })
            .collect()
    }

    /// A telemetry matrix with one row forced constant (collapsed trained
    /// bounds) when `n >= 2`.
    fn telemetry_matrix() -> impl Strategy<Value = Matrix> {
        (1usize..7, 4usize..60).prop_flat_map(|(n, t)| {
            prop::collection::vec(-1e3f64..1e3f64, n * t).prop_map(move |data| {
                let mut m = Matrix::from_vec(n, t, data).unwrap();
                if n >= 2 {
                    for c in 0..t {
                        m.set(n - 1, c, 42.0);
                    }
                }
                m
            })
        })
    }

    proptest! {
        #[test]
        fn online_is_bit_identical_to_batch(
            s in telemetry_matrix(),
            wl in 1usize..13,
            ws in 1usize..13,
            l in 1usize..9,
        ) {
            let model = CsTrainer::default().train(&s).unwrap();
            let cs = CsMethod::new(model, l).unwrap();
            let spec = WindowSpec::new(wl, ws).unwrap();
            let expect = batch(&cs, &s, spec);
            let mut online = OnlineCs::new(cs, spec);
            let mut got = Vec::new();
            for c in 0..s.cols() {
                if let Some(sig) = online.push(&s.col(c)).unwrap() {
                    got.push(sig);
                }
            }
            // Exact equality — the streaming path re-runs the very same
            // floating-point operations in the same order.
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn online_across_gaps_matches_chunked_batch(
            s in telemetry_matrix(),
            wl in 1usize..9,
            ws in 1usize..9,
            cut_num in 0usize..1000,
        ) {
            // A gap at `cut` splits the stream; emissions must equal the
            // batch pipeline run independently on each contiguous chunk.
            let t = s.cols();
            let cut = 1 + cut_num % (t - 1); // 1..t
            let model = CsTrainer::default().train(&s).unwrap();
            let cs = CsMethod::new(model, 3).unwrap();
            let spec = WindowSpec::new(wl, ws).unwrap();

            let mut expect = batch(&cs, &s.col_window(0, cut).unwrap(), spec);
            expect.extend(batch(&cs, &s.col_window(cut, t).unwrap(), spec));

            let mut online = OnlineCs::new(cs, spec);
            let mut got = Vec::new();
            for c in 0..t {
                if c == cut {
                    online.push_gap();
                }
                if let Some(sig) = online.push(&s.col(c)).unwrap() {
                    got.push(sig);
                }
            }
            prop_assert_eq!(got, expect);
            prop_assert_eq!(online.gaps(), 1);
        }

        #[test]
        fn fleet_is_bit_identical_to_batch_per_node(
            nodes in 1usize..6,
            wl in 1usize..7,
            ws in 1usize..7,
            t in 8usize..40,
            seed in 0u64..1_000,
        ) {
            // Per-node matrices (node n_sensors fixed at 3, one constant
            // row), deterministic per-(node, t) gaps from `seed`.
            let gap = |node: usize, c: usize| -> bool {
                // ~1/8 drop rate, decorrelated across nodes and time
                (seed ^ (node as u64).wrapping_mul(0x9e3779b97f4a7c15)
                      ^ (c as u64).wrapping_mul(0xbf58476d1ce4e5b9)).is_multiple_of(8)
            };
            let mats: Vec<Matrix> = (0..nodes)
                .map(|i| Matrix::from_fn(3, t, |r, c| {
                    if r == 2 { 7.0 } else {
                        ((c as f64 / (2.0 + r as f64) + i as f64).sin())
                            * (1.0 + seed as f64 * 1e-3)
                    }
                }))
                .collect();
            let methods: Vec<CsMethod> = mats.iter()
                .map(|m| CsMethod::new(CsTrainer::default().train(m).unwrap(), 2).unwrap())
                .collect();
            let spec = WindowSpec::new(wl, ws).unwrap();
            let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();

            let mut frame = engine.frame();
            let mut got: Vec<FleetEvent> = Vec::new();
            for c in 0..t {
                frame.clear();
                for (i, m) in mats.iter().enumerate() {
                    if !gap(i, c) {
                        frame.set(i, &m.col(c)).unwrap();
                    }
                }
                engine.ingest_frame_sink(&frame, &mut got).unwrap();
            }

            // Expectation: per node, the batch pipeline over each
            // contiguous present-run of that node's stream.
            for (i, (m, cs)) in mats.iter().zip(&methods).enumerate() {
                let node_got: Vec<&CsSignature> = got
                    .iter()
                    .filter(|e| e.node == i)
                    .map(|e| &e.signature)
                    .collect();
                // window indexes are consecutive from 0
                for (k, e) in got.iter().filter(|e| e.node == i).enumerate() {
                    prop_assert_eq!(e.window_index, k);
                }
                let mut expect = Vec::new();
                let mut run_start = 0usize;
                for c in 0..=t {
                    if c == t || gap(i, c) {
                        if c > run_start {
                            expect.extend(batch(
                                cs,
                                &m.col_window(run_start, c).unwrap(),
                                spec,
                            ));
                        }
                        run_start = c + 1;
                    }
                }
                prop_assert_eq!(node_got.len(), expect.len());
                for (a, b) in node_got.iter().zip(&expect) {
                    prop_assert_eq!(*a, b);
                }
            }
        }
    }
}
