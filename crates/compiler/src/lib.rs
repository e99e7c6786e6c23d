//! # prodigy-compiler — automatic DIG construction from program analysis
//!
//! The paper's software side includes an LLVM pass (§III-B2, Figs. 7–8)
//! that finds the key data structures and indirection patterns in an
//! application and instruments the binary with `registerNode` /
//! `registerTravEdge` / `registerTrigEdge` calls. This crate rebuilds that
//! pass over a compact SSA-style mini-IR ([`ir`]) instead of LLVM IR — the
//! analyses themselves are line-for-line ports of the paper's Fig. 8
//! pseudocode:
//!
//! * **node identification** (Fig. 8a): every allocation becomes a DIG node;
//! * **single-valued indirection** (Fig. 8b): a loaded value used as the
//!   index of another address calculation that feeds a load ⇒ a `w0` edge;
//! * **ranged indirection** (Fig. 8c): two loads `A[i]`, `A[i+1]` used as
//!   the bounds of a loop whose induction variable indexes `B` ⇒ a `w1`
//!   edge;
//! * **trigger selection** (§III-B2): traversal-edge sources with no
//!   incoming edge get the `w2` trigger self-edge.
//!
//! The pass output is a symbolic [`Instrumentation`]; binding it to the
//! runtime addresses of the allocations yields a [`prodigy::DigProgram`]
//! identical to hand annotation — a property the root package's
//! `tests/compiler_equivalence.rs` asserts for BFS, PageRank, SpMV and
//! integer sort.
//!
//! ## Example
//!
//! ```
//! use prodigy_compiler::ir::{FnBuilder, Operand};
//! use prodigy_compiler::analysis::analyze;
//!
//! // kernel: for i in 0..n { dst[i] = b[a[i]] }   (Fig. 7)
//! let mut f = FnBuilder::new("kernel");
//! let a = f.alloc(1000, 4);
//! let b = f.alloc(1000, 4);
//! f.loop_(Operand::Imm(0), Operand::Imm(1000), false, |f, i| {
//!     let pa = f.gep(a, Operand::Value(i), 4);
//!     let v = f.load(pa, 4);
//!     let pb = f.gep(b, Operand::Value(v), 4);
//!     f.load(pb, 4);
//! });
//! let inst = analyze(&f.finish().into_module());
//! assert_eq!(inst.trav_edges().count(), 1); // a →(w0) b
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codegen;
pub mod ir;

pub use analysis::{analyze, Instrumentation, SymCall};
pub use codegen::bind;
