//! Shape-specialized execution plans.
//!
//! A [`PlanCache`] pairs a [`Workspace`] arena with the set of batch
//! geometries it has already been warmed for. The planned entry points on
//! [`Sequential`](crate::Sequential) ([`forward_planned`], [`predict_planned`],
//! [`input_gradient_planned`]) thread the cache's arena through every layer,
//! so the second and later runs at a given geometry perform zero scratch
//! allocations: every intermediate activation, gradient, and im2col buffer
//! is popped from the free lists the first run populated.
//!
//! "Compiling" a plan is deliberately cheap — the workspace is length-keyed,
//! so warming one geometry is just running it once. The cache only records
//! which geometries have been seen so telemetry (`nn.plan.cache_hits` /
//! `nn.plan.compiled`) can report how often the steady state is hit.
//!
//! [`forward_planned`]: crate::Sequential::forward_planned
//! [`predict_planned`]: crate::Sequential::predict_planned
//! [`input_gradient_planned`]: crate::Sequential::input_gradient_planned

use ahw_telemetry::LazyCounter;
use ahw_tensor::{Shape, Workspace};

static PLAN_HITS: LazyCounter = LazyCounter::new("nn.plan.cache_hits");
static PLAN_COMPILED: LazyCounter = LazyCounter::new("nn.plan.compiled");

/// A workspace arena plus the batch geometries it has been warmed for.
///
/// One `PlanCache` serves one logical execution stream (a trainer, an
/// attack shard). It is not thread-safe; parallel shards each own one.
#[derive(Debug, Default)]
pub struct PlanCache {
    ws: Workspace,
    geometries: Vec<Shape>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Records an execution at the given input geometry, counting a cache
    /// hit when this geometry's buffers are already parked in the arena.
    pub fn note(&mut self, dims: &[usize]) {
        if self.geometries.iter().any(|g| g.dims() == dims) {
            PLAN_HITS.incr();
        } else {
            self.geometries.push(Shape::new(dims));
            PLAN_COMPILED.incr();
        }
    }

    /// The arena backing this plan.
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Number of distinct geometries this cache has executed.
    pub fn compiled_geometries(&self) -> usize {
        self.geometries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_tracks_distinct_geometries() {
        let mut cache = PlanCache::new();
        cache.note(&[4, 3, 8, 8]);
        cache.note(&[4, 3, 8, 8]);
        cache.note(&[2, 3, 8, 8]);
        assert_eq!(cache.compiled_geometries(), 2);
    }

    #[test]
    fn workspace_persists_across_notes() {
        let mut cache = PlanCache::new();
        let buf = cache.workspace().take(32);
        cache.workspace().recycle(buf);
        cache.note(&[1, 32]);
        assert_eq!(cache.workspace().resident_bytes(), 4 * 32);
    }
}
