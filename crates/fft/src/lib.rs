//! # stitch-fft — FFT substrate for the stitching system
//!
//! A from-scratch double-precision FFT library standing in for FFTW3 (CPU
//! path) and cuFFT (simulated-GPU path) in the ICPP 2014 stitching paper's
//! software stack. It provides:
//!
//! * arbitrary-length 1-D complex transforms — mixed-radix Cooley-Tukey for
//!   smooth sizes ([`MixedRadixPlan`]), Bluestein/chirp-z for sizes with
//!   large prime factors ([`BluesteinPlan`]);
//! * an FFTW-style [`Planner`] with Estimate / Measure / Patient search
//!   modes and a plan cache (§IV-A of the paper);
//! * 2-D transforms via row-column decomposition with a blocked transpose
//!   ([`Fft2d`]);
//! * real-to-complex / complex-to-real transforms ([`RealFft`],
//!   [`RealFft2d`]) — the paper's §VI-A future-work optimization;
//! * explicitly vector-shaped element-wise kernels ([`vectorops`]) — the
//!   NCC multiply and max reduction the paper hand-coded with SSE
//!   intrinsics (§IV-A);
//! * runtime-selected compute backends ([`backend`]) — scalar reference,
//!   lane-unrolled portable, and explicit AVX2 implementations of the
//!   phase-1 hot loops behind one [`ComputeBackend`] trait, chosen per
//!   process via `--backend` / `STITCH_BACKEND` / CPU feature detection;
//! * top-K correlation-peak extraction shared by every transform path
//!   ([`peaks`]);
//! * size utilities for the padding ablation ([`factor::next_smooth`]).
//!
//! Conventions: forward kernel `e^{-2πi jk/n}`, unscaled in both directions
//! (`inverse(forward(x)) = n·x`), matching FFTW. The convenience wrappers
//! [`fft_forward`] / [`fft_inverse`] hide the scaling.
//!
//! ```
//! use stitch_fft::{fft_forward, fft_inverse, C64, c64};
//! let x: Vec<C64> = (0..12).map(|k| c64(k as f64, 0.0)).collect();
//! let back = fft_inverse(&fft_forward(&x));
//! assert!(back.iter().zip(&x).all(|(a, b)| (*a - *b).abs() < 1e-9));
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod bluestein;
pub mod complex;
pub mod factor;
pub mod fft2d;
pub mod peaks;
pub mod plan;
pub mod radix;
pub mod real;
pub mod scratch;
pub mod vectorops;

pub use backend::{BackendChoice, ComputeBackend};
pub use bluestein::BluesteinPlan;
pub use complex::{c64, C64};
pub use fft2d::{transpose, Fft2d, Fft2dPair};
pub use plan::{fft_forward, fft_inverse, global_planner, FftPlan, PlanMode, Planner};
pub use radix::{dft_naive, Direction, MixedRadixPlan};
pub use real::{RealFft, RealFft2d};
