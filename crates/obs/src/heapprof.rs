//! Allocation-site heap profiler.
//!
//! When enabled (`Config::heap_profile`), each engine stamps a
//! thread-local **current site** — the shadow call-stack node plus source
//! line of the statement/instruction executing — before it can allocate;
//! the mark-sweep heap reads it at every allocation and charges per-site
//! counters (allocation count, bytes). The heap also stores the site in
//! each object's header so the sweep can take a **census**: how many
//! objects (and bytes) from each site survived the last collection. Churn
//! vs. live is exactly the distinction that makes a `parallel for` body
//! allocating per iteration visible.
//!
//! Sites are keyed by a packed `node << 32 | line` u64, so recording an
//! allocation is one thread-local read plus one map update under the
//! session's site-table mutex (the disabled path is one load of the
//! thread's flags word).

use crate::session;
use crate::stack;
use std::cell::Cell;
use std::collections::HashMap;

/// Pack a (stack node, line) pair into the site key stored in object
/// headers.
#[inline]
pub fn pack_site(node: u32, line: u32) -> u64 {
    ((node as u64) << 32) | line as u64
}

/// Inverse of [`pack_site`].
#[inline]
pub fn unpack_site(site: u64) -> (u32, u32) {
    ((site >> 32) as u32, (site & 0xFFFF_FFFF) as u32)
}

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SiteCounters {
    allocs: u64,
    alloc_bytes: u64,
    live_objects: u64,
    live_bytes: u64,
}

/// One session's site table, keyed by packed site.
pub(crate) type Sites = HashMap<u64, SiteCounters>;

thread_local! {
    /// The (node, line) the current thread is executing, packed. For the
    /// VM every virtual thread dispatches on the scheduler's OS thread,
    /// which re-stamps this before each instruction, so it is still
    /// correct at allocation time.
    static CURRENT_SITE: Cell<u64> = const { Cell::new(0) };
}

/// Stamp the calling thread's current allocation site. Engines call this
/// from the statement/instruction prologue when heap profiling is on.
#[inline]
pub fn set_site(node: u32, line: u32) {
    CURRENT_SITE.with(|c| c.set(pack_site(node, line)));
}

/// Charge one allocation of `bytes` to the calling thread's current site
/// and return the packed site for the object's header. Returns 0 (and
/// records nothing) when heap profiling is off.
#[inline]
pub fn record_alloc(bytes: usize) -> u64 {
    if !crate::heap_profile_enabled() {
        return 0;
    }
    let site = CURRENT_SITE.with(|c| c.get());
    session::with_current(|state| {
        let mut sites = session::lock(&state.sites);
        let s = sites.entry(site).or_default();
        s.allocs += 1;
        s.alloc_bytes += bytes as u64;
    });
    site
}

/// Record the survivors of one collection: `census` holds
/// `(packed site, live objects, live bytes)` rows gathered during sweep.
/// Replaces the previous census (live-after-*last*-GC).
pub fn record_census(census: &HashMap<u64, (u64, u64)>) {
    if !crate::heap_profile_enabled() {
        return;
    }
    session::with_current(|state| {
        let mut sites = session::lock(&state.sites);
        for s in sites.values_mut() {
            s.live_objects = 0;
            s.live_bytes = 0;
        }
        for (site, (objects, bytes)) in census {
            let s = sites.entry(*site).or_default();
            s.live_objects = *objects;
            s.live_bytes = *bytes;
        }
    });
}

/// One allocation site in a snapshot.
#[derive(Debug, Clone)]
pub struct SiteSnapshot {
    /// Shadow call-stack node of the allocating path.
    pub node: u32,
    /// Source line of the allocating statement.
    pub line: u32,
    /// Total allocations charged to this site.
    pub allocs: u64,
    /// Total bytes charged to this site.
    pub alloc_bytes: u64,
    /// Objects from this site that survived the last collection.
    pub live_objects: u64,
    /// Bytes from this site that survived the last collection.
    pub live_bytes: u64,
}

impl SiteSnapshot {
    /// `function:line` label for the site (leaf frame of the call path).
    pub fn label(&self, names: &[String]) -> String {
        let func = stack::leaf_sym(self.node)
            .and_then(|s| names.get(s as usize).cloned())
            .unwrap_or_else(|| "(toplevel)".to_string());
        format!("{func}:{}", self.line)
    }

    /// Full `;`-joined call path of the site.
    pub fn path(&self, names: &[String]) -> String {
        stack::render(self.node, names)
    }
}

/// A point-in-time copy of the heap profile.
#[derive(Debug, Default, Clone)]
pub struct HeapProfile {
    pub sites: Vec<SiteSnapshot>,
}

impl HeapProfile {
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Sites ordered by bytes surviving the last collection.
    pub fn top_by_live_bytes(&self, n: usize) -> Vec<&SiteSnapshot> {
        let mut rows: Vec<&SiteSnapshot> = self.sites.iter().collect();
        rows.sort_by(|a, b| {
            b.live_bytes.cmp(&a.live_bytes).then(b.alloc_bytes.cmp(&a.alloc_bytes))
        });
        rows.truncate(n);
        rows
    }

    /// Sites ordered by total bytes allocated (churn).
    pub fn top_by_churn(&self, n: usize) -> Vec<&SiteSnapshot> {
        let mut rows: Vec<&SiteSnapshot> = self.sites.iter().collect();
        rows.sort_by(|a, b| b.alloc_bytes.cmp(&a.alloc_bytes).then(b.allocs.cmp(&a.allocs)));
        rows.truncate(n);
        rows
    }
}

/// Copy out a session's site table.
pub(crate) fn snapshot(sites: &Sites) -> HeapProfile {
    let mut rows: Vec<SiteSnapshot> = sites
        .iter()
        .map(|(site, s)| {
            let (node, line) = unpack_site(*site);
            SiteSnapshot {
                node,
                line,
                allocs: s.allocs,
                alloc_bytes: s.alloc_bytes,
                live_objects: s.live_objects,
                live_bytes: s.live_bytes,
            }
        })
        .collect();
    rows.sort_by_key(|r| (r.node, r.line));
    HeapProfile { sites: rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_packing_roundtrips() {
        let site = pack_site(0xDEAD, 0xBEEF);
        assert_eq!(unpack_site(site), (0xDEAD, 0xBEEF));
    }

    #[test]
    fn disabled_records_nothing() {
        assert!(!crate::heap_profile_enabled());
        set_site(1, 2);
        assert_eq!(record_alloc(64), 0);
    }
}
