//! Static dispatch over every prefetcher the driver knows how to build.
//!
//! [`run_workload`](crate::runner::run_workload) attaches one prefetcher per
//! core, chosen at runtime from [`PrefetcherKind`].
//! Holding them as `Box<dyn Prefetcher>` would put a vtable call on the
//! per-instruction hot path (`on_demand` fires for every load and store, even
//! for the no-op baseline). [`AnyPrefetcher`] closes the set instead: one
//! enum variant per known design, so `System<AnyPrefetcher>` monomorphises
//! the dispatch into a jump table the optimiser can see through — the `None`
//! baseline's `on_demand` inlines to nothing. It is the only dispatch path.

use crate::runner::PrefetcherKind;
use prodigy::{Dig, ProdigyConfig, ProdigyPrefetcher};
use prodigy_prefetchers::{
    AinsworthJonesPrefetcher, DropletPrefetcher, GhbGdcPrefetcher, ImpPrefetcher, StreamPrefetcher,
    StridePrefetcher,
};
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use prodigy_sim::NullPrefetcher;
use std::any::Any;

/// The closed set of prefetchers the workload driver can attach, as an enum
/// so the simulator's hot path dispatches statically (no vtable).
// Variant sizes differ widely, but only one instance exists per core and it
// is never moved after construction — boxing the big variants would buy
// nothing and reintroduce a pointer chase on every on_demand.
#[allow(missing_docs, clippy::large_enum_variant)]
pub enum AnyPrefetcher {
    None(NullPrefetcher),
    Stride(StridePrefetcher),
    Stream(StreamPrefetcher),
    GhbGdc(GhbGdcPrefetcher),
    Imp(ImpPrefetcher),
    AinsworthJones(AinsworthJonesPrefetcher),
    Droplet(DropletPrefetcher),
    Prodigy(ProdigyPrefetcher),
}

/// Applies `$body` to the inner prefetcher of whichever variant is live.
macro_rules! each {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPrefetcher::None($p) => $body,
            AnyPrefetcher::Stride($p) => $body,
            AnyPrefetcher::Stream($p) => $body,
            AnyPrefetcher::GhbGdc($p) => $body,
            AnyPrefetcher::Imp($p) => $body,
            AnyPrefetcher::AinsworthJones($p) => $body,
            AnyPrefetcher::Droplet($p) => $body,
            AnyPrefetcher::Prodigy($p) => $body,
        }
    };
}

impl AnyPrefetcher {
    /// Constructs the prefetcher for `kind` with the driver's default
    /// configuration. Graph-specific designs derive their layout hints from
    /// `dig`; kinds whose hints cannot be derived (non-graph workloads)
    /// degrade to the `None` baseline, exactly as the paper's figures omit
    /// them.
    pub fn build(kind: PrefetcherKind, dig: &Dig, prodigy_cfg: ProdigyConfig) -> AnyPrefetcher {
        match kind {
            PrefetcherKind::None => AnyPrefetcher::None(NullPrefetcher::new()),
            PrefetcherKind::Stride => AnyPrefetcher::Stride(StridePrefetcher::default()),
            PrefetcherKind::Stream => AnyPrefetcher::Stream(StreamPrefetcher::default()),
            PrefetcherKind::GhbGdc => AnyPrefetcher::GhbGdc(GhbGdcPrefetcher::default()),
            PrefetcherKind::Imp => AnyPrefetcher::Imp(ImpPrefetcher::default()),
            PrefetcherKind::AinsworthJones => match AinsworthJonesPrefetcher::from_dig(dig) {
                Some(p) => AnyPrefetcher::AinsworthJones(p),
                None => AnyPrefetcher::None(NullPrefetcher::new()),
            },
            PrefetcherKind::Droplet => match DropletPrefetcher::from_dig(dig) {
                Some(p) => AnyPrefetcher::Droplet(p),
                None => AnyPrefetcher::None(NullPrefetcher::new()),
            },
            PrefetcherKind::Prodigy => AnyPrefetcher::Prodigy(ProdigyPrefetcher::new(prodigy_cfg)),
        }
    }
}

impl Prefetcher for AnyPrefetcher {
    fn name(&self) -> &'static str {
        each!(self, p => p.name())
    }
    #[inline]
    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, access: &DemandAccess) {
        each!(self, p => p.on_demand(ctx, access))
    }
    #[inline]
    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, fill: &FillEvent) {
        each!(self, p => p.on_fill(ctx, fill))
    }
    fn storage_bits(&self) -> u64 {
        each!(self, p => p.storage_bits())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        // Delegate to the *inner* prefetcher so existing downcasts (e.g. to
        // `ProdigyPrefetcher` for its internal stats) keep working unchanged.
        each!(self, p => p.as_any_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegates_name_and_downcast() {
        let mut p = AnyPrefetcher::None(NullPrefetcher::new());
        assert_eq!(p.name(), "none");
        assert!(p.as_any_mut().downcast_mut::<NullPrefetcher>().is_some());
        let mut pr = AnyPrefetcher::Prodigy(ProdigyPrefetcher::new(Default::default()));
        assert_eq!(pr.name(), "prodigy");
        assert!(pr
            .as_any_mut()
            .downcast_mut::<ProdigyPrefetcher>()
            .is_some());
    }
}
