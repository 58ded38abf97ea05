//! Support vector machines: linear (dual coordinate descent) and kernelised
//! (SMO). The paper's SVM experiments use LIBSVM with a linear kernel for
//! Item_All / Item_FS / Pat_All / Pat_FS and an RBF kernel for Item_RBF;
//! these implementations solve the same C-SVC dual problems.

mod kernel;
mod linear;
pub mod reference;
mod smo;

pub use kernel::Kernel;
pub use linear::{
    dual_objective, projected_gradient_gap, solve_binary, BinarySolution, LinearSvm,
    LinearSvmParams,
};
pub use smo::{BinaryModel, KernelSvm, KernelSvmParams};
