//! LRU cache of sensitivity-curve predictions — the graceful-
//! degradation reservoir.
//!
//! When the annealer (and everything behind it) is saturated, `predict`
//! requests are answered from here: stale but bounded — an entry older
//! than [`CACHE_MAX_AGE_US`] is never served — and every such
//! reply is marked `degraded: true` on the wire. Entries remember the
//! model-cell quality backing them; a degraded answer that would rest
//! on `Defaulted` cells trips the circuit breaker (a typed
//! `circuit_open` refusal) instead of being served, mirroring the
//! manager's defaulted-cell breaker for reactions.
//!
//! Eviction is least-recently-used on an explicit integer use stamp, so
//! cache behavior replays deterministically and the whole cache can
//! travel in a server snapshot.

/// Entries the daemon's prediction cache holds.
pub const CACHE_CAPACITY: usize = 64;

/// Oldest cached prediction the daemon's degraded path may serve, in
/// virtual microseconds.
pub const CACHE_MAX_AGE_US: u64 = 60_000_000;

/// One cached prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Fleet application predicted for.
    pub app: String,
    /// Co-runner signature (sorted distinct names joined with `+`).
    pub key: String,
    /// The cached normalized-runtime prediction.
    pub predicted: f64,
    /// Quality grade of the model cells behind it (`measured`,
    /// `interpolated`, `defaulted`).
    pub quality: String,
    /// Virtual store time in microseconds — bounds staleness.
    pub stored_us: u64,
    /// Last-use stamp for LRU eviction.
    pub used: u64,
}

icm_json::impl_json!(struct CacheEntry { app, key, predicted, quality, stored_us, used });

/// The LRU prediction cache.
#[derive(Debug, Clone)]
pub struct PredictionCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
    clock: u64,
}

impl PredictionCache {
    /// An empty cache bounded at `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// Rebuilds a cache from snapshotted entries (oldest stamps and
    /// all); `clock` resumes past the largest use stamp.
    pub fn restore(capacity: usize, entries: Vec<CacheEntry>) -> Self {
        let clock = entries.iter().map(|e| e.used).max().unwrap_or(0);
        let mut cache = Self {
            entries,
            capacity: capacity.max(1),
            clock,
        };
        cache.entries.truncate(cache.capacity);
        cache
    }

    /// The entries, for snapshotting.
    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `(app, key)`, refusing entries older than `max_age_us`
    /// at virtual time `now_us`. A hit refreshes the LRU stamp.
    pub fn get(
        &mut self,
        app: &str,
        key: &str,
        now_us: u64,
        max_age_us: u64,
    ) -> Option<CacheEntry> {
        let i = self
            .entries
            .iter()
            .position(|e| e.app == app && e.key == key)?;
        if now_us.saturating_sub(self.entries[i].stored_us) > max_age_us {
            return None;
        }
        self.clock += 1;
        self.entries[i].used = self.clock;
        Some(self.entries[i].clone())
    }

    /// Inserts or refreshes a prediction, evicting the least-recently-
    /// used entry when full.
    pub fn put(&mut self, app: &str, key: &str, predicted: f64, quality: &str, now_us: u64) {
        self.clock += 1;
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.app == app && e.key == key)
        {
            entry.predicted = predicted;
            entry.quality = quality.to_owned();
            entry.stored_us = now_us;
            entry.used = self.clock;
            return;
        }
        if self.entries.len() == self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.used)
                .map(|(i, _)| i)
            {
                self.entries.remove(lru);
            }
        }
        self.entries.push(CacheEntry {
            app: app.to_owned(),
            key: key.to_owned(),
            predicted,
            quality: quality.to_owned(),
            stored_us: now_us,
            used: self.clock,
        });
    }

    /// Drops every entry for `app` — called when an observation lands,
    /// since the online correction it feeds invalidates cached
    /// predictions for that application.
    pub fn invalidate_app(&mut self, app: &str) {
        self.entries.retain(|e| e.app != app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_refresh_and_staleness_is_bounded() {
        let mut cache = PredictionCache::new(4);
        cache.put("a", "b+c", 1.25, "measured", 1000);
        let hit = cache.get("a", "b+c", 1500, 1000).expect("fresh hit");
        assert_eq!(hit.predicted, 1.25);
        assert!(
            cache.get("a", "b+c", 2001 + 1000, 1000).is_none(),
            "entries beyond max age are never served"
        );
        assert!(cache.get("a", "other", 1500, 1000).is_none());
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = PredictionCache::new(2);
        cache.put("a", "x", 1.0, "measured", 0);
        cache.put("b", "x", 1.1, "measured", 0);
        cache.get("a", "x", 0, u64::MAX); // refresh `a`
        cache.put("c", "x", 1.2, "measured", 0); // evicts `b`
        assert!(cache.get("b", "x", 0, u64::MAX).is_none());
        assert!(cache.get("a", "x", 0, u64::MAX).is_some());
        assert!(cache.get("c", "x", 0, u64::MAX).is_some());
    }

    #[test]
    fn observations_invalidate_an_apps_entries() {
        let mut cache = PredictionCache::new(4);
        cache.put("a", "x", 1.0, "measured", 0);
        cache.put("a", "y", 1.1, "measured", 0);
        cache.put("b", "x", 1.2, "measured", 0);
        cache.invalidate_app("a");
        assert_eq!(cache.len(), 1);
        assert!(cache.get("b", "x", 0, u64::MAX).is_some());
    }

    #[test]
    fn restore_round_trips_through_json() {
        let mut cache = PredictionCache::new(4);
        cache.put("a", "x", 1.0, "interpolated", 42);
        cache.get("a", "x", 50, u64::MAX);
        let text = icm_json::to_string(&cache.entries().to_vec());
        let entries: Vec<CacheEntry> = icm_json::from_str(&text).expect("round-trips");
        let mut back = PredictionCache::restore(4, entries);
        let hit = back.get("a", "x", 60, u64::MAX).expect("survives");
        assert_eq!(hit.quality, "interpolated");
    }
}
