//! The client's page cache.
//!
//! GassyFS keeps recently touched pages on the FUSE client so repeat
//! reads skip the fabric. The rule is least-recently-used: a hit makes
//! the page the most recent, and an insert into a full cache evicts the
//! least recent page. Page ids are dense from 1 (see
//! [`crate::gasnet::GasnetStore::alloc`]), so the recency list is
//! intrusive and indexed by page id: every operation is O(1) and needs
//! no hashing.

use crate::vfs::PageId;

/// No neighbour / not cached.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Link {
    /// The next more recent page, or `NIL`.
    newer: usize,
    /// The next less recent page, or `NIL`.
    older: usize,
    cached: bool,
}

const UNCACHED: Link = Link { newer: NIL, older: NIL, cached: false };

/// A least-recently-used set of at most `capacity` pages. Capacity 0
/// caches nothing (FUSE `direct_io`).
#[derive(Debug, Clone)]
pub struct PageCache {
    capacity: usize,
    len: usize,
    /// Least recent cached page, or `NIL`.
    oldest: usize,
    /// Most recent cached page, or `NIL`.
    newest: usize,
    /// Recency links, indexed by page id; grows to the largest page id
    /// ever inserted.
    links: Vec<Link>,
}

impl PageCache {
    /// An empty cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        PageCache { capacity, len: 0, oldest: NIL, newest: NIL, links: Vec::new() }
    }

    fn contains(&self, i: usize) -> bool {
        self.links.get(i).is_some_and(|l| l.cached)
    }

    /// Is `page` cached? A hit makes it the most recent page.
    pub fn hit(&mut self, page: PageId) -> bool {
        let i = page as usize;
        if !self.contains(i) {
            return false;
        }
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
        true
    }

    /// Cache `page`, which must not be cached yet, as the most recent
    /// page; a full cache first evicts its least recent page.
    pub fn insert(&mut self, page: PageId) {
        if self.capacity == 0 {
            return;
        }
        let i = page as usize;
        debug_assert!(!self.contains(i), "page {page} is cached already");
        if self.len >= self.capacity {
            let oldest = self.oldest;
            self.unlink(oldest);
        }
        if i >= self.links.len() {
            self.links.resize(i + 1, UNCACHED);
        }
        self.push_newest(i);
    }

    /// Drop `pages` (freed by truncate or unlink) from the cache.
    pub fn evict(&mut self, pages: &[PageId]) {
        for &page in pages {
            let i = page as usize;
            if self.contains(i) {
                self.unlink(i);
            }
        }
    }

    /// The cached pages, least recent first.
    #[cfg(test)]
    fn resident(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.len);
        let mut i = self.oldest;
        while i != NIL {
            out.push(i as PageId);
            i = self.links[i].newer;
        }
        out
    }

    fn unlink(&mut self, i: usize) {
        let Link { newer, older, .. } = self.links[i];
        match older {
            NIL => self.oldest = newer,
            o => self.links[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.links[n].older = older,
        }
        self.links[i] = UNCACHED;
        self.len -= 1;
    }

    fn push_newest(&mut self, i: usize) {
        self.links[i] = Link { newer: NIL, older: self.newest, cached: true };
        match self.newest {
            NIL => self.oldest = i,
            n => self.links[n].newer = i,
        }
        self.newest = i;
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::rng::Rng;
    use std::collections::VecDeque;

    /// The reference model: the same rule on a deque, least recent at
    /// the front, scanned linearly.
    struct Reference {
        capacity: usize,
        pages: VecDeque<PageId>,
    }

    impl Reference {
        fn hit(&mut self, page: PageId) -> bool {
            if self.capacity == 0 {
                return false;
            }
            if let Some(pos) = self.pages.iter().position(|p| *p == page) {
                self.pages.remove(pos);
                self.pages.push_back(page);
                true
            } else {
                false
            }
        }

        fn insert(&mut self, page: PageId) {
            if self.capacity == 0 {
                return;
            }
            if self.pages.len() >= self.capacity {
                self.pages.pop_front();
            }
            self.pages.push_back(page);
        }

        fn evict(&mut self, pages: &[PageId]) {
            self.pages.retain(|p| !pages.contains(p));
        }
    }

    /// Random reads (hit, else insert), writes of new pages and
    /// evictions, the way `GassyFs` drives the cache.
    fn agrees_with_reference(capacity: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let mut cache = PageCache::new(capacity);
        let mut reference = Reference { capacity, pages: VecDeque::new() };
        let mut next_page: PageId = 1;
        let span = (capacity as u64 * 2).max(8);
        for step in 0..4_000 {
            match rng.range(0..10u32) {
                0..=5 if next_page > 1 => {
                    let lo = next_page.saturating_sub(span).max(1);
                    let page = rng.range(lo..next_page);
                    let hit = cache.hit(page);
                    assert_eq!(hit, reference.hit(page), "capacity {capacity} seed {seed} step {step}: hit {page}");
                    if !hit {
                        cache.insert(page);
                        reference.insert(page);
                    }
                }
                6..=8 => {
                    for _ in 0..rng.range(1..5u32) {
                        cache.insert(next_page);
                        reference.insert(next_page);
                        next_page += 1;
                    }
                }
                _ => {
                    let pages: Vec<PageId> = (0..rng.range(0..6u32)).map(|_| rng.range(1..next_page + 1)).collect();
                    cache.evict(&pages);
                    reference.evict(&pages);
                }
            }
            let resident = Vec::from(reference.pages.clone());
            assert_eq!(cache.resident(), resident, "capacity {capacity} seed {seed} step {step}");
            assert_eq!(cache.len, resident.len());
        }
    }

    #[test]
    fn matches_the_linear_deque_rule() {
        for capacity in [0, 1, 2, 1024] {
            for seed in 0..8 {
                agrees_with_reference(capacity, seed);
            }
        }
    }

    #[test]
    fn a_hit_refreshes_and_a_full_insert_evicts_the_least_recent() {
        let mut cache = PageCache::new(2);
        cache.insert(1);
        cache.insert(2);
        assert!(cache.hit(1));
        cache.insert(3);
        assert_eq!(cache.resident(), vec![1, 3]);
        assert!(!cache.hit(2));
        cache.evict(&[1, 7]);
        assert_eq!(cache.resident(), vec![3]);
        assert!(!PageCache::new(0).hit(3));
    }
}
