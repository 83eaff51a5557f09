//! # tetra-intern
//!
//! A global string interner shared by every stage of the Tetra pipeline.
//!
//! Identifiers are interned once (in the lexer, usually) into a [`Symbol`] —
//! a `Copy` 4-byte handle that compares and hashes as an integer. The
//! interpreter and VM hot paths never touch string contents; the debugger,
//! race detector and error paths recover the spelling with
//! [`Symbol::as_str`], which is lock-free: interned strings live in an
//! append-only chunked table whose slots are `OnceLock`s, so readers never
//! contend with writers and a resolved `&'static str` stays valid forever.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// Capacity of the first chunk; chunk `c` holds `FIRST_CHUNK << c` entries.
const FIRST_CHUNK: u32 = 512;
/// 32 doubling chunks cover u32::MAX symbols.
const CHUNK_COUNT: usize = 32;

type Chunk = Box<[OnceLock<&'static str>]>;

struct Interner {
    /// Spelling → id. Intern *hits* take the shared read lock; only the
    /// first sighting of a spelling takes the writer lock.
    map: RwLock<HashMap<&'static str, u32>>,
    /// Append-only id → spelling storage. Slots are written exactly once
    /// (under the map lock) and read without any lock.
    chunks: [OnceLock<Chunk>; CHUNK_COUNT],
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        map: RwLock::new(HashMap::new()),
        chunks: [const { OnceLock::new() }; CHUNK_COUNT],
    })
}

/// Split a symbol index into (chunk, offset within chunk).
#[inline]
fn locate(index: u32) -> (usize, usize) {
    // Chunks double: c=0 holds FIRST_CHUNK ids, c=1 the next 2*FIRST_CHUNK…
    // so id / FIRST_CHUNK + 1 has its top bit at the chunk number.
    let n = index / FIRST_CHUNK + 1;
    let chunk = (31 - n.leading_zeros()) as usize;
    let chunk_start = ((1u64 << chunk) - 1) as u32 * FIRST_CHUNK;
    (chunk, (index - chunk_start) as usize)
}

/// An interned identifier: 4 bytes, `Copy`, integer compare/hash.
///
/// Two `Symbol`s are equal iff their spellings are equal. `Ord` compares
/// spellings (lexicographic), so sorted listings stay human-ordered.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Intern a string, returning its stable handle. O(1) amortized; only
    /// the first sighting of a spelling takes the writer lock.
    pub fn intern(name: &str) -> Symbol {
        let it = interner();
        if let Some(&id) = it.map.read().unwrap().get(name) {
            return Symbol(id);
        }
        let mut map = it.map.write().unwrap();
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = map.get(name) {
            return Symbol(id);
        }
        let id = map.len() as u32;
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let (chunk_no, offset) = locate(id);
        let chunk = it.chunks[chunk_no].get_or_init(|| {
            let cap = (FIRST_CHUNK as usize) << chunk_no;
            (0..cap).map(|_| OnceLock::new()).collect()
        });
        chunk[offset].set(leaked).expect("symbol slot written twice");
        map.insert(leaked, id);
        Symbol(id)
    }

    /// The spelling. Lock-free: two relaxed-ish `OnceLock` reads.
    #[inline]
    pub fn as_str(self) -> &'static str {
        let it = interner();
        let (chunk_no, offset) = locate(self.0);
        let chunk = it.chunks[chunk_no].get().expect("symbol from a foreign interner");
        chunk[offset].get().expect("symbol from a foreign interner")
    }

    /// The raw id — a dense index usable for side tables.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// The symbol whose [`Symbol::index`] is `index`, if one was interned.
    /// Lets a side table keep a symbol in an atomic word.
    pub fn from_index(index: u32) -> Option<Symbol> {
        let (chunk_no, offset) = locate(index);
        interner().chunks[chunk_no].get()?[offset].get().map(|_| Symbol(index))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spelling_same_symbol() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("alpha");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.as_str(), "alpha");
    }

    #[test]
    fn distinct_spellings_distinct_symbols() {
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
        assert_eq!(Symbol::intern("x"), "x");
    }

    #[test]
    fn round_trips_survive_many_symbols() {
        // Force several chunk allocations and verify every spelling
        // round-trips (the property the debugger display relies on).
        let syms: Vec<(String, Symbol)> = (0..4096)
            .map(|i| (format!("sym_rt_{i}"), Symbol::intern(&format!("sym_rt_{i}"))))
            .collect();
        for (name, sym) in &syms {
            assert_eq!(sym.as_str(), name.as_str());
            assert_eq!(*sym, Symbol::intern(name));
        }
    }

    #[test]
    fn from_index_round_trips_interned_symbols_only() {
        let s = Symbol::intern("from_index_probe");
        assert_eq!(Symbol::from_index(s.index()), Some(s));
        assert_eq!(Symbol::from_index(u32::MAX), None);
    }

    #[test]
    fn ord_is_lexicographic() {
        let mut v = [Symbol::intern("zeta"), Symbol::intern("beta"), Symbol::intern("iota")];
        v.sort();
        let names: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["beta", "iota", "zeta"]);
    }

    #[test]
    fn concurrent_intern_and_read() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..2000 {
                        let s = Symbol::intern(&format!("concurrent_{}", i % 257));
                        assert_eq!(s.as_str(), format!("concurrent_{}", i % 257));
                        let _ = t;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST_CHUNK - 1), (0, FIRST_CHUNK as usize - 1));
        assert_eq!(locate(FIRST_CHUNK), (1, 0));
        assert_eq!(locate(3 * FIRST_CHUNK - 1), (1, 2 * FIRST_CHUNK as usize - 1));
        assert_eq!(locate(3 * FIRST_CHUNK), (2, 0));
    }
}
