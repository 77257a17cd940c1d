//! Pipeline observability: one [`PipelineStats`] per pipelined run,
//! exportable into an `ooc-metrics` [`Registry`] and renderable as
//! the text block `inspect --pipeline` prints.

use crate::cache::CacheStats;
use ooc_metrics::{Histogram, Registry};

/// Everything the tile pipeline counted during one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Prefetch requests issued to the worker pool.
    pub prefetch_issued: u64,
    /// Steps whose reads were all resident (cache or arrival buffer)
    /// when the step started.
    pub steps_unstalled: u64,
    /// Steps that blocked waiting for at least one delivery.
    pub stalls: u64,
    /// Tile reads satisfied by a prefetch delivery.
    pub prefetched_reads: u64,
    /// Tile reads performed synchronously on the main thread (written
    /// slots, cache overflow, or prefetch disabled).
    pub sync_reads: u64,
    /// Dirty tiles handed to the write-behind queue.
    pub writebehind_tiles: u64,
    /// Cache counters (hits / misses / evictions / overflows / peak).
    pub cache: CacheStats,
    /// High-water mark of prefetches in flight.
    pub max_in_flight: u64,
    /// Distribution of the in-flight depth sampled at each step.
    pub in_flight_depth: Histogram,
    /// Distribution of deliveries drained per stall (how much the
    /// main thread had to wait for).
    pub stall_drains: Histogram,
    /// Transient store-call failures absorbed by the retry policy
    /// across all arrays (from `IoStats.retries`).
    pub io_retries: u64,
}

impl PipelineStats {
    /// Cache hit rate over all `take` attempts (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// Folds another shard's counters into this one — used by the
    /// parallel executor to report one run-wide [`PipelineStats`]
    /// across worker shards. Counters and histograms add; high-water
    /// marks take the max.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.prefetch_issued += other.prefetch_issued;
        self.steps_unstalled += other.steps_unstalled;
        self.stalls += other.stalls;
        self.prefetched_reads += other.prefetched_reads;
        self.sync_reads += other.sync_reads;
        self.writebehind_tiles += other.writebehind_tiles;
        self.cache.merge(&other.cache);
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
        self.in_flight_depth.merge(&other.in_flight_depth);
        self.stall_drains.merge(&other.stall_drains);
        self.io_retries += other.io_retries;
    }

    /// Registers every counter under `pipeline_*` with a `kernel`
    /// label, following the repo's metrics naming scheme.
    pub fn register_into(&self, registry: &Registry, kernel: &str, version: &str) {
        let labels = &[("kernel", kernel), ("version", version)][..];
        let c = |name: &str, v: u64| registry.counter_add(name, labels, v);
        c("pipeline_prefetch_issued_total", self.prefetch_issued);
        c("pipeline_steps_unstalled_total", self.steps_unstalled);
        c("pipeline_stalls_total", self.stalls);
        c("pipeline_prefetched_reads_total", self.prefetched_reads);
        c("pipeline_sync_reads_total", self.sync_reads);
        c("pipeline_writebehind_tiles_total", self.writebehind_tiles);
        c("pipeline_cache_hits_total", self.cache.hits);
        c("pipeline_cache_misses_total", self.cache.misses);
        c("pipeline_cache_evictions_total", self.cache.evictions);
        c(
            "pipeline_cache_dirty_evictions_total",
            self.cache.dirty_evictions,
        );
        c("pipeline_cache_overflows_total", self.cache.overflows);
        c("pipeline_io_retries_total", self.io_retries);
        registry.gauge_set(
            "pipeline_cache_peak_elems",
            labels,
            self.cache.peak_elems as f64,
        );
        registry.gauge_set("pipeline_hit_rate", labels, self.hit_rate());
        registry.gauge_set("pipeline_max_in_flight", labels, self.max_in_flight as f64);
        registry.record_hist("pipeline_in_flight_depth", labels, &self.in_flight_depth);
        registry.record_hist("pipeline_stall_drains", labels, &self.stall_drains);
    }

    /// A compact multi-line text report for `inspect --pipeline`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  cache: {} hits / {} misses ({:.1}% hit rate), {} evictions ({} dirty), {} overflows, peak {} elems\n",
            self.cache.hits,
            self.cache.misses,
            self.hit_rate() * 100.0,
            self.cache.evictions,
            self.cache.dirty_evictions,
            self.cache.overflows,
            self.cache.peak_elems,
        ));
        out.push_str(&format!(
            "  prefetch: {} issued, {} reads served async, {} sync, max {} in flight (mean depth {:.2})\n",
            self.prefetch_issued,
            self.prefetched_reads,
            self.sync_reads,
            self.max_in_flight,
            self.in_flight_depth.mean(),
        ));
        out.push_str(&format!(
            "  stalls: {} of {} steps ({} clean), mean {:.2} drains per stall\n",
            self.stalls,
            self.stalls + self.steps_unstalled,
            self.steps_unstalled,
            self.stall_drains.mean(),
        ));
        if self.stall_drains.count > 0 {
            out.push_str(&format!(
                "  stall drains: {} (p50 {}, p90 {})\n",
                self.stall_drains.compact(),
                self.stall_drains.quantile(0.5),
                self.stall_drains.quantile(0.9),
            ));
        }
        if self.in_flight_depth.count > 0 {
            out.push_str(&format!(
                "  in-flight depth: {} (p50 {}, p90 {})\n",
                self.in_flight_depth.compact(),
                self.in_flight_depth.quantile(0.5),
                self.in_flight_depth.quantile(0.9),
            ));
        }
        out.push_str(&format!(
            "  write-behind: {} tiles queued\n",
            self.writebehind_tiles
        ));
        out.push_str(&format!("  io: {} transient retries\n", self.io_retries));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_metrics::Value;

    fn sample() -> PipelineStats {
        let mut s = PipelineStats {
            prefetch_issued: 10,
            steps_unstalled: 7,
            stalls: 3,
            prefetched_reads: 9,
            sync_reads: 2,
            writebehind_tiles: 4,
            cache: CacheStats {
                hits: 6,
                misses: 2,
                evictions: 1,
                dirty_evictions: 1,
                overflows: 0,
                peak_elems: 128,
            },
            max_in_flight: 4,
            io_retries: 5,
            ..PipelineStats::default()
        };
        s.in_flight_depth.observe(2);
        s.in_flight_depth.observe(4);
        s.stall_drains.observe(1);
        s
    }

    #[test]
    fn registers_counters_gauges_and_hists() {
        let r = Registry::new();
        sample().register_into(&r, "mxm", "c-opt");
        let labels = &[("kernel", "mxm"), ("version", "c-opt")][..];
        assert_eq!(
            r.get("pipeline_cache_hits_total", labels),
            Some(Value::Counter(6))
        );
        assert_eq!(
            r.get("pipeline_stalls_total", labels),
            Some(Value::Counter(3))
        );
        assert_eq!(
            r.get("pipeline_io_retries_total", labels),
            Some(Value::Counter(5))
        );
        match r.get("pipeline_hit_rate", labels) {
            Some(Value::Gauge(g)) => assert!((g - 0.75).abs() < 1e-12),
            other => panic!("hit rate gauge missing: {other:?}"),
        }
        match r.get("pipeline_in_flight_depth", labels) {
            Some(Value::Histogram(h)) => assert_eq!(h.count, 2),
            other => panic!("depth histogram missing: {other:?}"),
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render();
        for needle in [
            "cache:",
            "75.0% hit rate",
            "prefetch:",
            "stalls:",
            "write-behind:",
            "5 transient retries",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn hit_rate_handles_idle() {
        assert_eq!(PipelineStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_maxes_high_water() {
        let mut a = sample();
        let mut b = sample();
        b.max_in_flight = 9;
        b.stalls = 1;
        a.merge(&b);
        assert_eq!(a.prefetch_issued, 20);
        assert_eq!(a.stalls, 4);
        assert_eq!(a.cache.hits, 12);
        assert_eq!(a.max_in_flight, 9);
        assert_eq!(a.in_flight_depth.count, 4);
        assert_eq!(a.io_retries, 10);
        // Merging the default is the identity.
        let before = a.clone();
        a.merge(&PipelineStats::default());
        assert_eq!(a, before);
    }
}
