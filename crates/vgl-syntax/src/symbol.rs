//! Interned identifiers.
//!
//! The parser interns every identifier into the [`Interner`] of the
//! [`Program`](crate::Program) it builds, so the AST carries a 4-byte
//! [`Symbol`] where it would otherwise own a `String`, and semantic analysis
//! keys its name maps on symbols. An interner belongs to one program, never
//! to the process: concurrent compiles share nothing, and every name is
//! dropped with the program that used it. Names become `String`s again only
//! where the typed IR stores them and in diagnostics.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// An interned identifier: an index into its program's [`Interner`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Symbol(u32);

/// Names every [`Interner`] holds from the start, in this order, so the
/// front end can match built-in names without a lookup.
const PRESET: [&str; 10] =
    ["void", "bool", "byte", "int", "string", "Array", "System", "main", "this", "length"];

/// The preset symbols (see [`Interner::new`]).
pub mod sym {
    use super::Symbol;
    /// `void`
    pub const VOID: Symbol = Symbol(0);
    /// `bool`
    pub const BOOL: Symbol = Symbol(1);
    /// `byte`
    pub const BYTE: Symbol = Symbol(2);
    /// `int`
    pub const INT: Symbol = Symbol(3);
    /// `string`
    pub const STRING: Symbol = Symbol(4);
    /// `Array`
    pub const ARRAY: Symbol = Symbol(5);
    /// `System`
    pub const SYSTEM: Symbol = Symbol(6);
    /// `main`
    pub const MAIN: Symbol = Symbol(7);
    /// `this`
    pub const THIS: Symbol = Symbol(8);
    /// `length`
    pub const LENGTH: Symbol = Symbol(9);
}

/// The names of one program, each stored once.
///
/// All names live in one string; a symbol is the index of its end offset.
/// Lookup is an open-addressing table of symbol indices, so interning a
/// name the program has already seen allocates nothing. Names come from
/// outside the program, so the table hashes them with the standard library's
/// randomly keyed hasher: without its keys, crafted names cannot force
/// collisions.
#[derive(Clone, Debug)]
pub struct Interner {
    /// Every name, concatenated in interning order.
    text: String,
    /// `ends[i]` is the offset in `text` where symbol `i` ends.
    ends: Vec<u32>,
    /// Symbol index + 1 per slot, 0 when empty. The length is a power of
    /// two, at least twice the number of symbols.
    slots: Vec<u32>,
    /// Hashes names into `slots`.
    hasher: RandomState,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// An interner holding only the preset names of [`sym`].
    pub fn new() -> Interner {
        let mut names = Interner {
            text: String::new(),
            ends: Vec::new(),
            slots: vec![0; 32],
            hasher: RandomState::new(),
        };
        for name in PRESET {
            names.intern(name);
        }
        names
    }

    /// The symbol of `name`, adding it if it is new.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let slot = match self.find(name) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let sym = Symbol(self.ends.len() as u32);
        self.text.push_str(name);
        // Spans are `u32` offsets too, so a program's names always fit.
        let end = u32::try_from(self.text.len()).expect("names fit in u32 offsets");
        self.ends.push(end);
        self.slots[slot] = sym.0 + 1;
        if self.ends.len() * 2 > self.slots.len() {
            self.grow();
        }
        sym
    }

    /// The symbol of `name`, if this program has it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.find(name).ok()
    }

    /// The text of `sym`.
    fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// `Ok` with the symbol of `name`, or `Err` with the empty slot where
    /// it belongs.
    fn find(&self, name: &str) -> Result<Symbol, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hash(name) & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                s if self.resolve(Symbol(s - 1)) == name => return Ok(Symbol(s - 1)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        self.slots = vec![0; len];
        for i in 0..self.ends.len() {
            let mut slot = self.hash(self.resolve(Symbol(i as u32))) & (len - 1);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = i as u32 + 1;
        }
    }

    fn hash(&self, name: &str) -> usize {
        self.hasher.hash_one(name) as usize
    }
}

impl std::ops::Index<Symbol> for Interner {
    type Output = str;

    fn index(&self, sym: Symbol) -> &str {
        self.resolve(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_their_fixed_symbols() {
        let names = Interner::new();
        for (i, name) in PRESET.iter().enumerate() {
            assert_eq!(names.get(name), Some(Symbol(i as u32)));
        }
        assert_eq!(&names[sym::ARRAY], "Array");
        assert_eq!(&names[sym::LENGTH], "length");
        assert_eq!(names.ends.len(), PRESET.len());
    }

    #[test]
    fn interning_is_idempotent_across_growth() {
        let mut names = Interner::new();
        let syms: Vec<Symbol> = (0..1000).map(|i| names.intern(&format!("n{i}"))).collect();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(names.intern(&format!("n{i}")), s);
            assert_eq!(&names[s], format!("n{i}"));
        }
        assert_eq!(names.ends.len(), PRESET.len() + 1000);
        assert_eq!(names.get("absent"), None);
        assert_eq!(names.intern(""), names.intern(""));
    }
}
