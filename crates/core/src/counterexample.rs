//! Counterexample extraction and rendering (paper §6.3).
//!
//! When `PreState ⊲ R_pre ≠ PostState ⊲ R_post`, the two difference
//! automata yield the *missing* paths (expected after the change but
//! absent) and the *unexpected* paths (present but not justified by the
//! spec). Witness paths are rendered with location names, and the `#`
//! markers introduced by `any` compilation are rewritten back to the
//! surface pattern they stand for, so reasons read like the paper's
//! Table 1.

use rela_automata::{enumerate_words, product, Dfa, ProductMode, SymSet, Symbol, SymbolTable};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How many witness paths to list per difference, and how long they may
/// grow during enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessLimits {
    /// Maximum number of paths listed per difference direction.
    pub max_paths: usize,
    /// Maximum path length explored.
    pub max_len: usize,
}

impl Default for WitnessLimits {
    fn default() -> WitnessLimits {
        WitnessLimits {
            max_paths: 4,
            max_len: 64,
        }
    }
}

/// The two sides of a failed equation, as rendered path lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquationDiff {
    /// Paths in `LHS \ RHS`: expected after the change but missing.
    pub missing: Vec<String>,
    /// Paths in `RHS \ LHS`: observed after the change but unexpected.
    pub unexpected: Vec<String>,
}

impl EquationDiff {
    /// True when the equation actually held.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.unexpected.is_empty()
    }
}

/// Compare two DFAs and render both difference directions.
pub fn diff_equation(
    lhs: &Dfa,
    rhs: &Dfa,
    renderer: &PathRenderer<'_>,
    limits: WitnessLimits,
) -> EquationDiff {
    let missing_dfa = product(lhs, rhs, ProductMode::Difference);
    let unexpected_dfa = product(rhs, lhs, ProductMode::Difference);
    EquationDiff {
        missing: render_words(&missing_dfa, renderer, limits),
        unexpected: render_words(&unexpected_dfa, renderer, limits),
    }
}

fn render_words(dfa: &Dfa, renderer: &PathRenderer<'_>, limits: WitnessLimits) -> Vec<String> {
    enumerate_words(dfa, limits.max_paths, limits.max_len)
        .into_iter()
        .map(|w| renderer.render_witness(&w))
        .collect()
}

/// The alphabet of one check run: the compiled program's symbol table
/// (every db location at the program granularity, sorted, then `drop`,
/// then the `#k` markers), followed by a run-local, append-only overflow
/// for locations the db does not know. Program locations resolve
/// without a lock; only a program-table miss takes the overflow's.
///
/// Overflow ids follow first-use order, so they may differ between runs
/// of the same input; nothing rendered depends on them (see
/// [`PathRenderer`]).
pub struct RunAlphabet<'a> {
    program: &'a SymbolTable,
    overflow: Mutex<SymbolTable>,
}

impl<'a> RunAlphabet<'a> {
    /// An alphabet over `program` with an empty overflow.
    pub fn new(program: &'a SymbolTable) -> RunAlphabet<'a> {
        RunAlphabet {
            program,
            overflow: Mutex::new(SymbolTable::new()),
        }
    }

    /// The symbol for `name`: its program-table id, or an id past the
    /// program table, interned into the overflow on first use.
    pub fn resolve(&self, name: &str) -> Symbol {
        match self.program.lookup(name) {
            Some(sym) => sym,
            None => Symbol::from_index(self.program.len() + self.overflow().intern(name).index()),
        }
    }

    /// True for symbols past the program table.
    pub fn is_overflow(&self, sym: Symbol) -> bool {
        sym.index() >= self.program.len()
    }

    // poison-immune: the overflow is append-only, so a panicked holder
    // cannot leave it inconsistent
    fn overflow(&self) -> MutexGuard<'_, SymbolTable> {
        self.overflow.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The name of `sym`, or its raw id when no table produced it.
    fn name(&self, sym: Symbol) -> String {
        if !self.is_overflow(sym) {
            return self.program.name(sym).to_owned();
        }
        let overflow = self.overflow();
        let ix = sym.index() - self.program.len();
        if ix < overflow.len() {
            overflow.name(Symbol::from_index(ix)).to_owned()
        } else {
            sym.to_string()
        }
    }

    /// The lowest-ranked member of a sorted symbol list: rank is
    /// program-table position, then name order for overflow names.
    fn lowest_ranked(&self, members: &[Symbol]) -> Option<Symbol> {
        let &first = members.first()?;
        if !self.is_overflow(first) {
            return Some(first);
        }
        members.iter().copied().min_by_key(|&sym| self.name(sym))
    }
}

/// Renders witness paths with location names and `#`-undo.
///
/// Witness bytes are defined by names, never by symbol ids: a finite arc
/// label renders as its lowest-ranked member ([`RunAlphabet`] order), and
/// a co-finite label as the first program-table symbol it does not
/// exclude — or `<any-other>` when that symbol is a `#k` marker or no
/// program symbol qualifies.
pub struct PathRenderer<'a> {
    alphabet: &'a RunAlphabet<'a>,
    hash_undo: &'a BTreeMap<Symbol, String>,
}

impl<'a> PathRenderer<'a> {
    /// Build a renderer over a run's alphabet and the compiled program's
    /// undo map.
    pub fn new(alphabet: &'a RunAlphabet<'a>, hash_undo: &'a BTreeMap<Symbol, String>) -> Self {
        PathRenderer {
            alphabet,
            hash_undo,
        }
    }

    /// Render one symbol, undoing `#` markers.
    pub fn render_symbol(&self, sym: Symbol) -> String {
        match self.hash_undo.get(&sym) {
            Some(original) => format!("({original})"),
            None => self.alphabet.name(sym),
        }
    }

    /// Render a concrete path.
    pub fn render_path(&self, path: &[Symbol]) -> String {
        if path.is_empty() {
            return "ε".to_owned();
        }
        path.iter()
            .map(|&s| self.render_symbol(s))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Render a witness (a sequence of symbol-set constraints), one
    /// concrete member per position.
    pub fn render_witness(&self, witness: &[SymSet]) -> String {
        if witness.is_empty() {
            return "ε".to_owned();
        }
        witness
            .iter()
            .map(|set| match set {
                SymSet::Finite(members) => match self.alphabet.lowest_ranked(members) {
                    Some(sym) => self.render_symbol(sym),
                    None => "∅".to_owned(),
                },
                SymSet::CoFinite(excluded) => match self.alphabet.program.any_except(excluded) {
                    Some(sym) if !self.hash_undo.contains_key(&sym) => self.render_symbol(sym),
                    _ => "<any-other>".to_owned(),
                },
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rela_automata::{determinize, Nfa, Regex};

    fn setup() -> (SymbolTable, BTreeMap<Symbol, String>) {
        let mut table = SymbolTable::new();
        table.intern("A1");
        table.intern("B1");
        let hash = table.intern("#1");
        let mut undo = BTreeMap::new();
        undo.insert(hash, "A1 A2 A3 D1".to_owned());
        (table, undo)
    }

    #[test]
    fn renders_paths_with_names() {
        let (table, undo) = setup();
        let alphabet = RunAlphabet::new(&table);
        let renderer = PathRenderer::new(&alphabet, &undo);
        let a1 = table.lookup("A1").unwrap();
        let b1 = table.lookup("B1").unwrap();
        assert_eq!(renderer.render_path(&[a1, b1]), "A1 B1");
        assert_eq!(renderer.render_path(&[]), "ε");
    }

    #[test]
    fn undoes_hash_markers() {
        let (table, undo) = setup();
        let alphabet = RunAlphabet::new(&table);
        let renderer = PathRenderer::new(&alphabet, &undo);
        let a1 = table.lookup("A1").unwrap();
        let hash = table.lookup("#1").unwrap();
        assert_eq!(renderer.render_path(&[a1, hash]), "A1 (A1 A2 A3 D1)");
    }

    #[test]
    fn diff_reports_both_directions() {
        let (table, undo) = setup();
        let alphabet = RunAlphabet::new(&table);
        let renderer = PathRenderer::new(&alphabet, &undo);
        let a1 = table.lookup("A1").unwrap();
        let b1 = table.lookup("B1").unwrap();
        let lhs = determinize(&Nfa::word(&[a1]));
        let rhs = determinize(&Nfa::word(&[b1]));
        let diff = diff_equation(&lhs, &rhs, &renderer, WitnessLimits::default());
        assert_eq!(diff.missing, vec!["A1"]);
        assert_eq!(diff.unexpected, vec!["B1"]);
        assert!(!diff.is_empty());
    }

    #[test]
    fn equal_automata_have_empty_diff() {
        let (table, undo) = setup();
        let alphabet = RunAlphabet::new(&table);
        let renderer = PathRenderer::new(&alphabet, &undo);
        let a1 = table.lookup("A1").unwrap();
        let d = determinize(&Nfa::word(&[a1]));
        let diff = diff_equation(&d, &d, &renderer, WitnessLimits::default());
        assert!(diff.is_empty());
    }

    #[test]
    fn witness_limits_bound_output() {
        let (table, undo) = setup();
        let alphabet = RunAlphabet::new(&table);
        let renderer = PathRenderer::new(&alphabet, &undo);
        let a1 = table.lookup("A1").unwrap();
        let many = determinize(&Regex::sym(a1).star().to_nfa());
        let none = determinize(&Regex::Empty.to_nfa());
        let limits = WitnessLimits {
            max_paths: 2,
            max_len: 10,
        };
        let diff = diff_equation(&many, &none, &renderer, limits);
        assert_eq!(diff.missing.len(), 2);
        assert_eq!(diff.missing[0], "ε");
        assert_eq!(diff.missing[1], "A1");
    }

    #[test]
    fn cofinite_witnesses_render_readably() {
        let (table, undo) = setup();
        let alphabet = RunAlphabet::new(&table);
        let zed = alphabet.resolve("zed");
        let renderer = PathRenderer::new(&alphabet, &undo);
        let a1 = table.lookup("A1").unwrap();
        let w = vec![SymSet::all_except(vec![a1])];
        let rendered = renderer.render_witness(&w);
        // B1 is available and not a hash marker
        assert_eq!(rendered, "B1");
        let w = vec![SymSet::all_except(vec![a1, zed])];
        assert_eq!(renderer.render_witness(&w), "B1");
        // the first non-excluded program symbol is the `#1` marker
        let b1 = table.lookup("B1").unwrap();
        let w = vec![SymSet::all_except(vec![a1, b1])];
        assert_eq!(renderer.render_witness(&w), "<any-other>");
        // every program symbol excluded: no overflow name stands in
        let hash = table.lookup("#1").unwrap();
        let w = vec![SymSet::all_except(vec![a1, b1, hash])];
        assert_eq!(renderer.render_witness(&w), "<any-other>");
    }

    #[test]
    fn overflow_names_resolve_past_the_program_table() {
        let (table, undo) = setup();
        let alphabet = RunAlphabet::new(&table);
        let a1 = alphabet.resolve("A1");
        assert_eq!(Some(a1), table.lookup("A1"));
        assert!(!alphabet.is_overflow(a1));
        let zed = alphabet.resolve("zed");
        let off = alphabet.resolve("off-db");
        assert!(alphabet.is_overflow(zed) && alphabet.is_overflow(off));
        assert_eq!(zed.index(), table.len());
        assert_eq!(
            alphabet.resolve("zed"),
            zed,
            "overflow interning is idempotent"
        );
        let renderer = PathRenderer::new(&alphabet, &undo);
        assert_eq!(renderer.render_path(&[a1, zed, off]), "A1 zed off-db");
    }

    #[test]
    fn finite_labels_render_their_lowest_ranked_member() {
        let (table, undo) = setup();
        let alphabet = RunAlphabet::new(&table);
        // `zed` is interned first, so its id is lower than `off-db`'s
        let zed = alphabet.resolve("zed");
        let off = alphabet.resolve("off-db");
        let b1 = table.lookup("B1").unwrap();
        let renderer = PathRenderer::new(&alphabet, &undo);
        // a program symbol outranks every overflow name...
        let mixed = SymSet::from_syms(vec![zed, b1, off]);
        assert_eq!(renderer.render_witness(&[mixed]), "B1");
        // ...and overflow names rank by name, not by first-use order
        let overflow_only = SymSet::from_syms(vec![zed, off]);
        assert_eq!(renderer.render_witness(&[overflow_only]), "off-db");
    }
}
