//! Backend differential suite: every compute backend must produce
//! bit-identical integer displacements, global positions and mosaics
//! over the ground-truth sweep (including the prime/Bluestein tile
//! sizes), and every backend must honor the steady-state zero-allocation
//! contract of the PCIAM pair hot path.
//!
//! The active backend is process-global, so this suite lives in its own
//! integration binary (its tests serialize via
//! `stitch_testkit::backends::serial_guard`) instead of riding along in
//! `conformance.rs`, whose tests assume the backend never moves under
//! them.

use stitch_core::{Correlator, OpCounters, PairKind, TransformKind};
use stitch_fft::backend::{self, BackendChoice};
use stitch_fft::{PlanMode, Planner};
use stitch_image::{Scene, SceneParams};
use stitch_testkit::alloc::CountingAllocator;
use stitch_testkit::backends::{choices, run_backend_case, serial_guard};
use stitch_testkit::sweep;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn all_backends_bit_identical_across_sweep() {
    let cases = sweep();
    assert!(cases.len() >= 12, "sweep shrank below the acceptance floor");
    assert!(
        cases.iter().any(|c| c.has_prime_dim()),
        "sweep lost its prime-tile (Bluestein) coverage"
    );
    let mut failures = Vec::new();
    for case in &cases {
        let report = run_backend_case(case);
        if !report.is_clean() {
            failures.push(report);
        }
    }
    assert!(
        failures.is_empty(),
        "backend divergence in {} case(s):\n{}",
        failures.len(),
        failures
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Runs `pairs` full PCIAM pair computations after `warmup` of the same
/// under the currently selected backend, returning the heap allocations
/// the measured iterations performed on this thread. Mirrors the
/// conformance suite's probe; the warmup also absorbs the backend
/// module's one-time `STITCH_BACKEND` environment read.
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
    assert!(sink.windows(2).all(|p| p[0] == p[1]), "unstable result");
    measured
}

#[test]
fn every_backend_is_allocation_free_in_steady_state() {
    let _guard = serial_guard();
    for choice in choices() {
        backend::select(choice);
        let name = backend::resolved_name(choice);
        // 58×41 pads to 60×42, so the padded case runs the mean-fill copy
        for (kind, dims) in [
            (TransformKind::Complex, (64, 48)),
            (TransformKind::Real, (64, 48)),
            (TransformKind::PaddedComplex, (58, 41)),
        ] {
            let allocs = steady_state_pair_allocations(kind, dims, 3, 5);
            assert_eq!(
                allocs, 0,
                "backend {name} / {kind:?}: steady-state pair computation \
                 allocated {allocs} times"
            );
        }
    }
    backend::select(BackendChoice::Auto);
}
