//! # prodigy — the paper's core contribution
//!
//! This crate implements Prodigy (Talati et al., HPCA 2021): a
//! hardware-software co-designed prefetcher for data-indirect irregular
//! workloads. Software describes the layout and traversal pattern of the
//! workload's key data structures as a **Data Indirection Graph** ([`Dig`]):
//! nodes are arrays (base address, capacity, element size), weighted edges
//! are data-dependent indirections — *single-valued* (`w0`, `b[a[i]]`) and
//! *ranged* (`w1`, `b[a[i] .. a[i+1]]`) — plus a *trigger* self-edge (`w2`)
//! naming the structure whose demand accesses start prefetch sequences.
//!
//! The hardware side ([`ProdigyPrefetcher`]) stores the DIG in three small
//! memory-mapped tables ([`tables`]), tracks in-flight prefetch sequences in
//! a PreFetch status Handling Register file ([`pfhr`]), reacts to L1D demand
//! accesses (sequence initialisation, with a depth-adaptive look-ahead) and
//! prefetch fills (sequence advance through the indirection functions), and
//! drops sequences the core has caught up with.
//!
//! ## Example: describing a BFS-shaped traversal
//!
//! ```
//! use prodigy::{Dig, EdgeKind, TriggerSpec};
//!
//! let mut dig = Dig::new();
//! let wq = dig.node(0x1000, 100, 4);       // work queue
//! let off = dig.node(0x2000, 101, 4);      // offset list
//! let edg = dig.node(0x3000, 1000, 4);     // edge list
//! let vis = dig.node(0x4000, 100, 4);      // visited list
//! dig.edge(wq, off, EdgeKind::SingleValued);
//! dig.edge(off, edg, EdgeKind::Ranged);
//! dig.edge(edg, vis, EdgeKind::SingleValued);
//! dig.trigger(wq, TriggerSpec::default());
//! assert_eq!(dig.depth_from_trigger(), 4);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod context;
pub mod dig;
pub mod pfhr;
pub mod prefetcher;
pub mod storage;
pub mod tables;

pub use api::DigProgram;
pub use context::ProdigyContext;
pub use dig::{
    edge_tag, node_tag, Dig, DigError, EdgeKind, NodeId, TraversalDirection, TriggerSpec,
};
pub use pfhr::{PfhrEntry, PfhrFile};
pub use prefetcher::{ProdigyConfig, ProdigyPrefetcher, ProdigyStats};
pub use tables::{EdgeRecord, EdgeTable, NodeRecord, NodeTable};
