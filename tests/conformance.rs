//! Conformance suite: the cross-variant differential oracle over the
//! full sweep, plus stress-runner reproducibility.
//!
//! `STITCH_TESTKIT_EXHAUSTIVE=1` widens the sweep (bigger grids, more
//! prime geometries, harsher noise); the default sweep is sized for
//! tier-1 CI. On failure the oracle prints a structured report naming
//! the variant, tile pair / tile / pixel, and both values — see
//! EXPERIMENTS.md § "Conformance & stress testing" for how to read it.
//!
//! This binary also runs under the counting allocator so it can assert
//! the hot-path invariant directly: steady-state PCIAM pair computation
//! performs zero heap allocations after warmup.

use stitch_core::{Correlator, OpCounters, PairKind, TransformKind};
use stitch_fft::{PlanMode, Planner};
use stitch_image::{Scene, SceneParams};
use stitch_testkit::alloc::CountingAllocator;
use stitch_testkit::{run_case, run_stress, sweep};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Runs `pairs` full PCIAM pair computations (two forward FFTs + NCC +
/// inverse + peaks + CCF refine) after `warmup` of the same, returning
/// the number of heap allocations the measured iterations performed on
/// this thread.
fn steady_state_pair_allocations(
    kind: TransformKind,
    (w, h): (usize, usize),
    warmup: usize,
    pairs: usize,
) -> u64 {
    let scene = Scene::generate(
        w as f64 * 3.0,
        h as f64 * 3.0,
        SceneParams {
            colony_count: 20,
            seed: 99,
            ..SceneParams::default()
        },
    );
    let a = scene.render_region(w as f64, h as f64, w, h, 0.02, 30.0, 1);
    let b = scene.render_region(w as f64 * 1.75, h as f64 + 2.0, w, h, 0.02, 30.0, 2);
    let planner = Planner::new(PlanMode::Estimate);
    let mut ctx = Correlator::new(kind, &planner, w, h, OpCounters::new_shared());
    let run_pair = |ctx: &mut Correlator| {
        let fa = ctx.forward_fft(&a);
        let fb = ctx.forward_fft(&b);
        ctx.displacement_oriented(&fa, &fb, &a, &b, Some(PairKind::West))
    };
    let mut sink = Vec::with_capacity(warmup + pairs);
    for _ in 0..warmup {
        sink.push(run_pair(&mut ctx));
    }
    let before = CountingAllocator::thread_allocations();
    for _ in 0..pairs {
        sink.push(run_pair(&mut ctx));
    }
    let measured = CountingAllocator::thread_allocations() - before;
    // sanity: the work actually happened and was deterministic
    assert!(sink.windows(2).all(|p| p[0] == p[1]), "unstable result");
    measured
}

#[test]
fn steady_state_pair_computation_is_allocation_free() {
    // 58×41 pads to 60×42, so the padded case runs the mean-fill copy
    for (kind, dims) in [
        (TransformKind::Complex, (64, 48)),
        (TransformKind::Real, (64, 48)),
        (TransformKind::PaddedComplex, (58, 41)),
    ] {
        let allocs = steady_state_pair_allocations(kind, dims, 3, 5);
        assert_eq!(
            allocs, 0,
            "{kind:?}: steady-state pair computation allocated {allocs} times"
        );
    }
}

#[test]
fn all_variants_bit_identical_across_sweep() {
    let cases = sweep();
    assert!(cases.len() >= 12, "sweep shrank below the acceptance floor");
    assert!(
        cases.iter().any(|c| c.has_prime_dim()),
        "sweep lost its prime-tile (Bluestein) coverage"
    );
    let mut failures = Vec::new();
    for case in &cases {
        let report = run_case(case);
        assert_eq!(report.variants.len(), 6, "{}", report.label);
        // Cross-variant agreement is the hard invariant. Truth recovery
        // is asserted separately below on well-conditioned cases.
        if !report.is_clean() {
            failures.push(report);
        }
    }
    assert!(
        failures.is_empty(),
        "variant divergence in {} of {} cases:\n{}",
        failures.len(),
        cases.len(),
        failures
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn well_conditioned_cases_also_match_ground_truth() {
    // Generous overlap, moderate noise: phase 1 should nail every pair
    // and phase 2 must land every tile exactly. (Thin-overlap and
    // high-noise sweep cases may legitimately miss a featureless pair —
    // identically in all variants — so truth is only asserted here.)
    for case in sweep()
        .into_iter()
        .filter(|c| c.overlap >= 0.25 && c.noise_sigma <= 40.0)
    {
        let report = run_case(&case);
        assert!(report.is_clean(), "{report}");
        assert!(
            report.truth_errors <= 2,
            "phase-1 truth errors ({}) out of line: {report}",
            report.truth_errors
        );
        assert_eq!(
            report.position_deviation,
            (0, 0),
            "phase 2 must recover exact positions: {report}"
        );
    }
}

#[test]
fn stress_runner_is_reproducible() {
    for seed in [1u64, 2026] {
        let a = run_stress(seed);
        let b = run_stress(seed);
        assert_eq!(a, b, "seed {seed}: same seed must give identical outcome");
        assert!(
            a.cpu_gpu_agree(),
            "seed {seed}: pipelined CPU and GPU diverged under stress\ncpu west {:?}\ngpu west {:?}",
            a.cpu_west,
            a.gpu_west
        );
    }
}
