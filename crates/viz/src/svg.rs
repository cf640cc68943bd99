//! A minimal SVG document builder.
//!
//! Only the handful of primitives charts need; output is stable,
//! human-readable XML so that figures diff cleanly in the VCS (a Popper
//! artifact requirement).

use std::fmt::{self, Write as _};

/// An SVG document under construction. Every primitive appends its
/// element straight to the document text.
#[derive(Debug, Clone)]
pub struct SvgDoc {
    width: u32,
    height: u32,
    text: String,
}

/// Text with `&<>"` escaped; text without them is written in one piece.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = self.0;
        let mut start = 0;
        for (i, b) in text.bytes().enumerate() {
            let entity = match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' => "&quot;",
                _ => continue,
            };
            f.write_str(&text[start..i])?;
            f.write_str(entity)?;
            start = i + 1;
        }
        f.write_str(&text[start..])
    }
}

/// Below this magnitude [`Coord`] rounds exactly in integers: ten times
/// the value fits a `u64` with room to spare.
const EXACT_COORD: f64 = 4e9;

/// A coordinate with one decimal, printed exactly as `format!("{v:.1}")`
/// prints it: the binary value rounded half-to-even at the first
/// decimal, and a `-` for every negative value, `-0.0` included (stable
/// output, no float noise). `write!(f, "{:.1}")` itself takes the exact
/// float formatter's slow path for every value: a 190k-event
/// `timeline_svg` took about twice as long with it (170 ms against
/// 80 ms on a 2-vCPU Xeon).
struct Coord(f64);

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        let a = v.abs();
        if a.is_nan() || a >= EXACT_COORD {
            return write!(f, "{v:.1}");
        }
        // a = mantissa * 2^-shift exactly, and a < 2^32 puts shift >= 21;
        // tenths = round(10 * a), half to even.
        let bits = a.to_bits();
        let biased = (bits >> 52) as u32;
        let fraction = bits & ((1 << 52) - 1);
        let (mantissa, shift) =
            if biased == 0 { (fraction, 1074) } else { (fraction | (1 << 52), 1075 - biased) };
        let scaled = mantissa * 10;
        let mut tenths = if shift > 60 {
            // scaled < 2^57 <= 2^(shift - 4): 10 * a is below a sixteenth.
            0
        } else {
            let q = scaled >> shift;
            let rem = scaled & ((1 << shift) - 1);
            let half = 1 << (shift - 1);
            q + u64::from(rem > half || (rem == half && q % 2 == 1))
        };
        // Digits right to left: the tenth, the point, the integer part.
        let mut buf = [0u8; 16];
        let mut i = buf.len() - 2;
        buf[i + 1] = b'0' + (tenths % 10) as u8;
        buf[i] = b'.';
        tenths /= 10;
        loop {
            i -= 1;
            buf[i] = b'0' + (tenths % 10) as u8;
            tenths /= 10;
            if tenths == 0 {
                break;
            }
        }
        if v.is_sign_negative() {
            i -= 1;
            buf[i] = b'-';
        }
        f.write_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"))
    }
}

impl SvgDoc {
    /// A document of the given pixel size.
    pub fn new(width: u32, height: u32) -> Self {
        let text = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" viewBox=\"0 0 {width} {height}\">\n"
        );
        SvgDoc { width, height, text }
    }

    /// Document width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Document height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// A straight line.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        writeln!(
            self.text,
            r#"  <line x1="{}" y1="{}" x2="{}" y2="{}" stroke="{stroke}" stroke-width="{}"/>"#,
            Coord(x1),
            Coord(y1),
            Coord(x2),
            Coord(y2),
            Coord(width)
        )
        .expect("string write");
    }

    /// A filled rectangle.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str) {
        writeln!(
            self.text,
            r#"  <rect x="{}" y="{}" width="{}" height="{}" fill="{fill}"/>"#,
            Coord(x),
            Coord(y),
            Coord(w),
            Coord(h)
        )
        .expect("string write");
    }

    /// A polyline through the given points.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) {
        self.text.push_str(r#"  <polyline points=""#);
        for (i, &(x, y)) in points.iter().enumerate() {
            let sep = if i > 0 { " " } else { "" };
            write!(self.text, "{sep}{},{}", Coord(x), Coord(y)).expect("string write");
        }
        writeln!(self.text, r#"" fill="none" stroke="{stroke}" stroke-width="{}"/>"#, Coord(width))
            .expect("string write");
    }

    /// A small filled circle (data-point marker).
    pub fn circle(&mut self, x: f64, y: f64, r: f64, fill: &str) {
        writeln!(
            self.text,
            r#"  <circle cx="{}" cy="{}" r="{}" fill="{fill}"/>"#,
            Coord(x),
            Coord(y),
            Coord(r)
        )
        .expect("string write");
    }

    /// Text anchored per `anchor` ("start" | "middle" | "end").
    pub fn text(&mut self, x: f64, y: f64, content: &str, size: u32, anchor: &str) {
        writeln!(
            self.text,
            r#"  <text x="{}" y="{}" font-size="{size}" font-family="monospace" text-anchor="{anchor}">{}</text>"#,
            Coord(x),
            Coord(y),
            Escaped(content)
        )
        .expect("string write");
    }

    /// Finish the document.
    pub fn finish(mut self) -> String {
        self.text.push_str("</svg>\n");
        self.text
    }
}

/// Nice tick positions covering `[lo, hi]` (1/2/5 ladder).
pub fn ticks(lo: f64, hi: f64, target: usize) -> Vec<f64> {
    if !(lo.is_finite() && hi.is_finite()) || hi <= lo || target == 0 {
        return vec![lo];
    }
    let span = hi - lo;
    let raw_step = span / target as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let step = [1.0, 2.0, 5.0, 10.0]
        .iter()
        .map(|m| m * mag)
        .find(|s| span / s <= target as f64)
        .unwrap_or(10.0 * mag);
    let first = (lo / step).ceil() * step;
    let mut out = Vec::new();
    let mut v = first;
    while v <= hi + step * 1e-9 {
        // Snap tiny float noise to zero.
        out.push(if v.abs() < step * 1e-9 { 0.0 } else { v });
        v += step;
    }
    if out.is_empty() {
        // No ladder value landed inside a narrow/offset range; fall back
        // to the endpoints so axes always get at least two labels.
        out.push(lo);
        out.push(hi);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_structure() {
        let mut doc = SvgDoc::new(320, 200);
        doc.line(0.0, 0.0, 10.0, 10.0, "black", 1.0);
        doc.rect(5.0, 5.0, 20.0, 8.0, "#4472c4");
        doc.circle(1.0, 2.0, 3.0, "red");
        doc.polyline(&[(0.0, 0.0), (1.0, 2.0)], "blue", 1.5);
        doc.text(10.0, 20.0, "hello <world> & \"quotes\"", 12, "middle");
        let out = doc.finish();
        assert!(out.starts_with("<svg "));
        assert!(out.trim_end().ends_with("</svg>"));
        assert!(out.contains(r#"width="320""#));
        assert!(out.contains("<line "));
        assert!(out.contains("<rect "));
        assert!(out.contains("<circle "));
        assert!(out.contains("<polyline "));
        assert!(out.contains("hello &lt;world&gt; &amp; &quot;quotes&quot;"));
        // Well-formed-ish: line/rect/circle/polyline self-close, text has
        // a closing tag.
        assert_eq!(out.matches("/>").count(), 4);
        assert_eq!(out.matches("</text>").count(), 1);
    }

    #[test]
    fn coordinates_are_stable() {
        let mut a = SvgDoc::new(10, 10);
        a.line(1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0, "k", 1.0);
        let mut b = SvgDoc::new(10, 10);
        b.line(1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0, "k", 1.0);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn tick_ladder() {
        assert_eq!(ticks(0.0, 10.0, 5), vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        let t01 = ticks(0.0, 1.0, 5);
        assert_eq!(t01.len(), 6);
        assert!((t01[1] - 0.2).abs() < 1e-12);
        let t = ticks(3.0, 97.0, 5);
        assert!(t.len() >= 3 && t.len() <= 6, "{t:?}");
        assert!(t.first().unwrap() >= &3.0 && t.last().unwrap() <= &97.0);
        // Degenerate ranges don't panic.
        assert_eq!(ticks(5.0, 5.0, 4), vec![5.0]);
        assert!(ticks(f64::NAN, 1.0, 4)[0].is_nan());
    }

    fn coord(v: f64) -> String {
        Coord(v).to_string()
    }

    #[test]
    fn coordinates_match_format_at_the_edges() {
        let edges = [
            0.0,
            -0.0,
            0.05,
            0.25,
            0.75,
            -0.25,
            1.25,
            2.5,
            9.95,
            -0.04,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            3_999_999_999.95,
            3_999_999_999.25,
            4e9,
            -4e9,
            1e20,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in edges {
            assert_eq!(coord(v), format!("{v:.1}"), "{v:?}");
        }
    }

    #[test]
    fn text_is_copied_unless_it_needs_escaping() {
        assert_eq!(Escaped("plain ünïcødé").to_string(), "plain ünïcødé");
        assert_eq!(Escaped("a&b<c>d\"e&&").to_string(), "a&amp;b&lt;c&gt;d&quot;e&amp;&amp;");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// splitmix64: many well-spread values from one generated seed.
        fn mix(x: &mut u64) -> u64 {
            *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        proptest! {
            #[test]
            fn coordinates_match_format(seed in any::<u64>()) {
                let mut x = seed;
                for _ in 0..4096 {
                    let r = mix(&mut x);
                    let k = (mix(&mut x) as i64) >> (r % 64);
                    let v = match r % 5 {
                        // Any bit pattern: NaNs, infinities, subnormals.
                        0 => f64::from_bits(mix(&mut x)),
                        // Exact ties at the second decimal (x.25, x.75).
                        1 => k as f64 / 4.0,
                        // Decimal-looking values, ties that are not exact.
                        2 => k as f64 / 20.0,
                        // One ulp either side of a tie.
                        3 => {
                            let t = k as f64 / 4.0;
                            if r & 32 == 0 { t.next_up() } else { t.next_down() }
                        }
                        // Chart-scale values and past the exact range.
                        _ => (k.unsigned_abs() as f64).sqrt() * if r & 64 == 0 { 1.0 } else { -1e3 },
                    };
                    prop_assert_eq!(coord(v), format!("{v:.1}"), "{:?}", v);
                }
            }

            #[test]
            fn escaping_matches_replace(s in "[a-z&<>\"' é]{0,16}") {
                let out = Escaped(&s).to_string();
                let expected =
                    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;");
                prop_assert_eq!(out, expected);
            }

            #[test]
            fn ticks_within_range(lo in -1e6f64..1e6, span in 1e-3f64..1e6, target in 2usize..12) {
                let hi = lo + span;
                let t = ticks(lo, hi, target);
                prop_assert!(!t.is_empty());
                for v in &t {
                    prop_assert!(*v >= lo - span * 1e-9 && *v <= hi + span * 1e-6, "{v} not in [{lo}, {hi}]");
                }
                // Monotone.
                for w in t.windows(2) {
                    prop_assert!(w[1] > w[0]);
                }
                // Never absurdly many ticks.
                prop_assert!(t.len() <= 2 * target + 2);
            }
        }
    }
}
