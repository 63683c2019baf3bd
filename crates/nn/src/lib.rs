//! `osa-nn` — a pure-Rust neural-network engine (DESIGN.md §1 row 1).
//!
//! This is the root of the workspace's dependency DAG: the A3C actor/critic
//! networks (`osa-mdp`, `osa-pensieve`) and the agent/value ensembles
//! behind the U_π and U_V uncertainty signals (`osa-core`) are all built
//! from these pieces. No tch/torch —
//! every forward and backward pass is hand-written and verified against
//! central-difference numerical gradients (`tests/gradcheck.rs`).
//!
//! The build environment is offline, so this crate also hosts the two
//! pieces of infrastructure DESIGN.md §5 assigned to external crates:
//! [`rng`] (in place of `rand`) and [`json`] (in place of `serde_json`).
//!
//! # Layout
//!
//! - [`tensor`] — a row-major `Vec<f32>` matrix type for 1-D/2-D data;
//! - [`layer`] — the [`Layer`] trait plus `Dense`, `ReLU`, `Softmax`;
//! - [`conv`] — `Conv1d` over fixed-geometry flattened inputs;
//! - [`branches`] — parallel per-feature heads (split-apply-concat) for
//!   Pensieve-style branched actor/critic networks;
//! - [`loss`] — MSE and softmax cross-entropy (on logits);
//! - [`optim`] — `Sgd`, `RmsProp`, `Adam` behind the [`Optimizer`] trait;
//! - [`init`] — Xavier/He initialization from an explicit seeded RNG;
//! - [`net`] — the [`Sequential`] container tying it together;
//! - [`workspace`] — the [`Workspace`] scratch-buffer arena every
//!   forward and backward pass draws its buffers from;
//! - [`serialize`] — versioned JSON persistence ([`NetSpec`]) with exact
//!   round-tripping of weights;
//! - [`stacked`] — ensemble inference as one grouped GEMM per layer
//!   ([`StackedNet`]), backing the OSAP uncertainty signals;
//! - [`rng`] — seeded xoshiro256\*\* PRNG shared by the whole workspace;
//! - [`json`] — minimal JSON codec backing [`serialize`].
//!
//! # Conventions
//!
//! Every layer maps a batch matrix of shape `(batch, in_dim)` to
//! `(batch, out_dim)`; `Conv1d` interprets each row as a channel-major
//! flattened `(channels, length)` signal. `backward_ws` consumes
//! `dL/d(output)` and returns `dL/d(input)`, *overwriting* (not
//! accumulating) the stored parameter gradients. Loss functions average
//! over the batch, so parameter gradients come out batch-averaged. All
//! randomness flows through an explicit [`rng::Rng`], so a u64 seed
//! reproduces training bit-for-bit.
//!
//! # Example
//!
//! ```
//! use osa_nn::prelude::*;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let mut net = Sequential::new()
//!     .with(Dense::new(2, 8, Init::HeUniform, &mut rng))
//!     .with(ReLU::new())
//!     .with(Dense::new(8, 2, Init::XavierUniform, &mut rng));
//! let x = Tensor::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
//! let mut ws = Workspace::new();
//! let logits = net.forward_ws(&x, &mut ws);
//! assert_eq!((logits.rows(), logits.cols()), (2, 2));
//! ```
#![forbid(unsafe_code)]

pub mod branches;
pub mod conv;
pub mod init;
pub mod json;
pub mod layer;
pub mod loss;
pub mod net;
pub mod optim;
pub mod quant;
pub mod rng;
pub mod serialize;
pub mod stacked;
pub mod tensor;
pub mod workspace;

pub use branches::{Branch, Branches};
pub use conv::Conv1d;
pub use init::Init;
pub use layer::{Dense, Layer, ParamGrad, ReLU, Softmax};
pub use net::Sequential;
pub use optim::{Adam, Optimizer, RmsProp, Sgd};
pub use rng::Rng;
pub use serialize::{LayerSpec, LoadError, NetSpec};
pub use stacked::{StackError, StackedNet};
pub use tensor::{Act, Tensor};
pub use workspace::Workspace;

/// One-stop import for downstream crates, examples, and tests.
pub mod prelude {
    pub use crate::branches::{Branch, Branches};
    pub use crate::conv::Conv1d;
    pub use crate::init::Init;
    pub use crate::layer::{Dense, Layer, ParamGrad, ReLU, Softmax};
    pub use crate::loss;
    pub use crate::net::Sequential;
    pub use crate::optim::{Adam, Optimizer, RmsProp, Sgd};
    pub use crate::quant::{QuantScratch, QuantStacked};
    pub use crate::rng::Rng;
    pub use crate::serialize::{LayerSpec, LoadError, NetSpec};
    pub use crate::stacked::{StackError, StackedNet};
    pub use crate::tensor::{Act, Tensor};
    pub use crate::workspace::Workspace;
}
