//! String generation from a practical regex subset.
//!
//! Supports what the workspace's patterns use: literal characters,
//! character classes (`[a-z0-9_]`, negation, escapes, literal `-` at the
//! edges), escapes (`\n`, `\t`, `\\`, `\-`, `\[`, …), the Unicode
//! category shorthand `\PC` (any non-control character), and the
//! quantifiers `{n}`, `{n,m}`, `*`, `+`, `?`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

#[derive(Debug, Clone)]
enum Atom {
    /// One concrete character.
    Literal(char),
    /// A set of inclusive ranges; `negated` samples the complement.
    Class { ranges: Vec<(char, char)>, negated: bool },
    /// `\PC` — any character outside Unicode category C (no controls).
    NotControl,
    /// `.` — anything but newline.
    Dot,
}

#[derive(Debug, Clone)]
struct Piece {
    atom: Atom,
    min: usize,
    max: usize, // inclusive
}

/// Generate one string matching `pattern`. Panics on syntax this subset
/// does not understand, so unsupported test patterns fail loudly.
pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
    let pieces = parse(pattern);
    let mut out = String::new();
    for p in &pieces {
        let n = if p.max > p.min {
            (p.min..=p.max).generate(rng)
        } else {
            p.min
        };
        for _ in 0..n {
            out.push(sample_atom(&p.atom, rng));
        }
    }
    out
}

fn parse(pattern: &str) -> Vec<Piece> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pieces = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let atom = match chars[i] {
            '[' => {
                let (class, next) = parse_class(&chars, i + 1, pattern);
                i = next;
                class
            }
            '\\' => {
                let (atom, next) = parse_escape(&chars, i + 1, pattern);
                i = next;
                atom
            }
            '.' => {
                i += 1;
                Atom::Dot
            }
            c => {
                i += 1;
                Atom::Literal(c)
            }
        };
        let (min, max, next) = parse_quantifier(&chars, i, pattern);
        i = next;
        pieces.push(Piece { atom, min, max });
    }
    pieces
}

/// Parse after `[`; returns the class atom and the index past `]`.
fn parse_class(chars: &[char], mut i: usize, pattern: &str) -> (Atom, usize) {
    let negated = chars.get(i) == Some(&'^');
    if negated {
        i += 1;
    }
    let mut members: Vec<char> = Vec::new();
    let mut ranges: Vec<(char, char)> = Vec::new();
    let mut pending_dash = false;
    while i < chars.len() && chars[i] != ']' {
        let c = if chars[i] == '\\' {
            i += 1;
            let e = *chars.get(i).unwrap_or_else(|| panic!("dangling escape in {pattern:?}"));
            i += 1;
            match e {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                '0' => '\0',
                other => other, // \- \\ \] \[ \" \' etc: literal
            }
        } else if chars[i] == '-' && !members.is_empty() && i + 1 < chars.len() && chars[i + 1] != ']' {
            // Range marker: combine with previous member and next char.
            pending_dash = true;
            i += 1;
            continue;
        } else {
            let c = chars[i];
            i += 1;
            c
        };
        if pending_dash {
            let lo = members.pop().expect("range start");
            assert!(lo <= c, "inverted range {lo:?}-{c:?} in {pattern:?}");
            ranges.push((lo, c));
            pending_dash = false;
        } else {
            members.push(c);
        }
    }
    assert!(chars.get(i) == Some(&']'), "unterminated class in {pattern:?}");
    if pending_dash {
        members.push('-'); // trailing dash is literal
    }
    for m in members {
        ranges.push((m, m));
    }
    assert!(!ranges.is_empty(), "empty class in {pattern:?}");
    (Atom::Class { ranges, negated }, i + 1)
}

/// Parse after `\`; returns the atom and index past the escape.
fn parse_escape(chars: &[char], i: usize, pattern: &str) -> (Atom, usize) {
    let e = *chars.get(i).unwrap_or_else(|| panic!("dangling escape in {pattern:?}"));
    match e {
        'n' => (Atom::Literal('\n'), i + 1),
        't' => (Atom::Literal('\t'), i + 1),
        'r' => (Atom::Literal('\r'), i + 1),
        '0' => (Atom::Literal('\0'), i + 1),
        'P' | 'p' => {
            // \PC / \p{C}: only the "control/other" category is supported.
            let cat = *chars.get(i + 1).unwrap_or_else(|| panic!("dangling \\P in {pattern:?}"));
            assert!(cat == 'C', "unsupported category \\P{cat} in {pattern:?}");
            let negated = e == 'P'; // \PC = NOT in C
            assert!(negated, "\\pC (control chars) unsupported in {pattern:?}");
            (Atom::NotControl, i + 2)
        }
        other => (Atom::Literal(other), i + 1),
    }
}

/// Parse an optional quantifier at `i`; returns (min, max, next index).
fn parse_quantifier(chars: &[char], i: usize, pattern: &str) -> (usize, usize, usize) {
    match chars.get(i) {
        Some('{') => {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated quantifier in {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            let (min, max) = if let Some((lo, hi)) = body.split_once(',') {
                let lo: usize = lo.trim().parse().unwrap_or_else(|_| panic!("bad quantifier in {pattern:?}"));
                let hi: usize = if hi.trim().is_empty() {
                    lo + 8
                } else {
                    hi.trim().parse().unwrap_or_else(|_| panic!("bad quantifier in {pattern:?}"))
                };
                (lo, hi)
            } else {
                let n: usize = body.trim().parse().unwrap_or_else(|_| panic!("bad quantifier in {pattern:?}"));
                (n, n)
            };
            (min, max, close + 1)
        }
        Some('*') => (0, 8, i + 1),
        Some('+') => (1, 8, i + 1),
        Some('?') => (0, 1, i + 1),
        _ => (1, 1, i),
    }
}

/// Characters `\PC` may produce: printable ASCII plus a few multibyte
/// letters to exercise UTF-8 paths. Never control characters.
const NOT_CONTROL_EXTRAS: &[char] = &['é', 'ü', 'λ', '世', '界', '∑', '—', '¿'];

fn sample_atom(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::Literal(c) => *c,
        Atom::Dot => {
            // Printable ASCII except newline.
            char::from_u32((0x20u32..0x7f).generate(rng)).unwrap()
        }
        Atom::NotControl => {
            if rng.coin(0.9) {
                char::from_u32((0x20u32..0x7f).generate(rng)).unwrap()
            } else {
                NOT_CONTROL_EXTRAS[(0..NOT_CONTROL_EXTRAS.len()).generate(rng)]
            }
        }
        Atom::Class { ranges, negated } => {
            if *negated {
                // Sample printable ASCII until we miss every range.
                for _ in 0..256 {
                    let c = char::from_u32((0x20u32..0x7f).generate(rng)).unwrap();
                    if !ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi) {
                        return c;
                    }
                }
                panic!("negated class covers all of printable ASCII");
            }
            // Weight ranges by size for a roughly uniform choice.
            let total: u32 = ranges.iter().map(|&(lo, hi)| hi as u32 - lo as u32 + 1).sum();
            let mut pick = (0..total).generate(rng);
            for &(lo, hi) in ranges {
                let span = hi as u32 - lo as u32 + 1;
                if pick < span {
                    return char::from_u32(lo as u32 + pick).unwrap_or(lo);
                }
                pick -= span;
            }
            unreachable!()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    fn rng() -> TestRng {
        TestRng::deterministic(42)
    }

    #[test]
    fn classes_ranges_and_quantifiers() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate("[a-z][a-z0-9_]{0,7}", &mut r);
            assert!((1..=8).contains(&s.chars().count()), "{s:?}");
            let first = s.chars().next().unwrap();
            assert!(first.is_ascii_lowercase(), "{s:?}");
        }
    }

    #[test]
    fn escapes_and_edge_dashes() {
        let mut r = rng();
        for _ in 0..200 {
            let s = generate("[a-z:\\- \n#\\[\\]{},\"']{0,10}", &mut r);
            for c in s.chars() {
                assert!(
                    c.is_ascii_lowercase() || ":- \n#[]{},\"'".contains(c),
                    "unexpected {c:?} in {s:?}"
                );
            }
        }
    }

    #[test]
    fn not_control_category() {
        let mut r = rng();
        for _ in 0..500 {
            let s = generate("\\PC{0,20}", &mut r);
            assert!(s.chars().count() <= 20);
            for c in s.chars() {
                assert!(!c.is_control(), "control char {c:?}");
            }
        }
    }

    #[test]
    fn space_to_tilde_class() {
        let mut r = rng();
        for _ in 0..100 {
            let s = generate("[ -~]{0,24}", &mut r);
            for c in s.chars() {
                assert!((' '..='~').contains(&c), "{c:?}");
            }
        }
    }

    #[test]
    fn star_plus_question() {
        let mut r = rng();
        for _ in 0..100 {
            let s = generate("a+b*c?", &mut r);
            assert!(s.starts_with('a'), "{s:?}");
        }
    }
}
