//! # smpss-blas — sequential kernel substrate
//!
//! The paper implements its linear-algebra task bodies "using highly tuned
//! BLAS libraries" — non-threaded **Goto BLAS 1.20** and **Intel MKL 9.1**.
//! Neither is available (nor would closed binaries make a reproduction),
//! so this crate provides pure-Rust single-threaded f32 kernels with the
//! same roles:
//!
//! * [`Vendor::Tuned`] — packed panels and a register-tiled micro-kernel
//!   under gemm, syrk, trsm and potrf, standing in for Goto BLAS: one
//!   source compiled twice, a portable 4×8 instance and a 6×16 AVX2+FMA
//!   one selected at run time on CPUs that have them
//!   ([`kernels::instance`] names the one in use);
//! * [`Vendor::Reference`] — a plain textbook implementation standing in
//!   for the (here: slower) second library, so benchmarks can plot the
//!   paper's two "tiles" series (`SMPSs + Goto tiles` / `SMPSs + MKL
//!   tiles`).
//!
//! Kernels operate on square [`Block`]s — the `M x M`-element hyper-matrix
//! blocks of §IV. Operations are exactly the ones Figure 2 declares as
//! tasks (`sgemm_t`, `spotrf_t`, `strsm_t`, `ssyrk_t`) plus the add/sub
//! kernels Strassen needs (§VI.C).
//!
//! [`flops`] holds the operation-count formulas used to convert measured
//! (or simulated) times into the Gflop/s numbers the paper's figures plot.

pub mod block;
pub mod flops;
pub mod kernels;
pub mod vendor;

pub use block::Block;
pub use vendor::Vendor;
