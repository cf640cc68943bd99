//! A small argument parser: `popper <command> [subcommand] [args…]
//! [--flag[=value]]`.

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    /// Positional arguments in order (command first).
    pub positional: Vec<String>,
    /// `--flag` / `--flag=value` / `--flag value` options.
    pub flags: Vec<(String, Option<String>)>,
}

impl Parsed {
    /// The command (first positional), if any.
    pub fn command(&self) -> Option<&str> {
        self.positional.first().map(String::as_str)
    }

    /// Positional argument `i` (0 = the command itself).
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Is a boolean flag present?
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name=value` or `--name value`.
    pub fn flag_value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A numeric flag with a default.
    pub fn flag_num(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flag_value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got '{v}'")),
        }
    }

    /// A count flag (`--workers`, `--tenants`, `--jobs`,
    /// `--sim-workers`) with a default: an integer ≥ 1. Fractions and
    /// exponents are rejected rather than truncated.
    pub fn flag_count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flag_value(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("--{name} expects a positive integer, got '{v}'")),
        }
    }

    /// Refuse a flag that the command `words` (`"chaos"`, `"farm
    /// serve"`) does not take, besides the global `--author` and
    /// `--sim-workers`, and an argument past the `args` it takes after
    /// those words, rather than ignore them: a mistyped `--seed` must
    /// not run seed 1.
    pub fn expect(&self, words: &str, flags: &[&str], args: usize) -> Result<(), String> {
        let takes = |f: &str| flags.contains(&f) || GLOBAL_FLAGS.contains(&f);
        if let Some((flag, _)) = self.flags.iter().find(|(f, _)| !takes(f)) {
            let accepted: Vec<String> = flags.iter().chain(GLOBAL_FLAGS).map(|f| format!("--{f}")).collect();
            return Err(format!("popper {words}: unknown flag --{flag}; it accepts {}", accepted.join(", ")));
        }
        if let Some(extra) = self.positional.get(words.split(' ').count() + args) {
            return Err(format!("popper {words}: unexpected argument '{extra}'; it takes at most {args}"));
        }
        Ok(())
    }

    /// An unsigned integer flag (`--seed`), if given.
    pub fn flag_u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.flag_value(name)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{name} expects an unsigned integer, got '{v}'"))
            })
            .transpose()
    }
}

/// Flags every command accepts.
const GLOBAL_FLAGS: &[&str] = &["author", "sim-workers"];

/// Known flags that take a value; everything else is boolean.
const VALUE_FLAGS: &[&str] = &[
    "author",
    "workers",
    "seed",
    "column",
    "schedule",
    "tolerance",
    "tenants",
    "jobs",
    "template",
    "port",
    "sim-workers",
];

/// Parse argv (program name already stripped).
pub fn parse(argv: &[&str]) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i];
        if let Some(flag) = arg.strip_prefix("--") {
            if flag.is_empty() {
                return Err("stray '--'".into());
            }
            if let Some((name, value)) = flag.split_once('=') {
                out.flags.push((name.to_string(), Some(value.to_string())));
            } else if VALUE_FLAGS.contains(&flag) {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{flag} expects a value"))?;
                out.flags.push((flag.to_string(), Some(value.to_string())));
                i += 1;
            } else {
                out.flags.push((flag.to_string(), None));
            }
        } else if arg.starts_with('-') && arg.len() > 1 {
            return Err(format!("unknown short option '{arg}' (use --long flags)"));
        } else {
            out.positional.push(arg.to_string());
        }
        i += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_and_flags() {
        let p = parse(&["add", "torpor", "myexp", "--author", "ivo", "--force"]).unwrap();
        assert_eq!(p.command(), Some("add"));
        assert_eq!(p.pos(1), Some("torpor"));
        assert_eq!(p.pos(2), Some("myexp"));
        assert_eq!(p.flag_value("author"), Some("ivo"));
        assert!(p.has_flag("force"));
        assert!(!p.has_flag("missing"));
    }

    #[test]
    fn equals_form() {
        let p = parse(&["ci", "--workers=8", "--verbose"]).unwrap();
        assert_eq!(p.flag_value("workers"), Some("8"));
        assert_eq!(p.flag_num("workers", 2.0).unwrap(), 8.0);
        assert_eq!(p.flag_num("other", 2.0).unwrap(), 2.0);
        assert!(p.has_flag("verbose"));
    }

    #[test]
    fn errors() {
        assert!(parse(&["x", "--author"]).is_err()); // missing value
        assert!(parse(&["--"]).is_err());
        assert!(parse(&["-x"]).is_err());
        let p = parse(&["ci", "--workers=abc"]).unwrap();
        assert!(p.flag_num("workers", 1.0).is_err());
    }

    #[test]
    fn empty_argv() {
        let p = parse(&[]).unwrap();
        assert_eq!(p.command(), None);
    }

    #[test]
    fn count_flags_take_positive_integers_only() {
        let p = parse(&["farm", "serve", "--tenants", "3", "--jobs=1"]).unwrap();
        assert_eq!(p.flag_count("tenants", 4).unwrap(), 3);
        assert_eq!(p.flag_count("jobs", 4).unwrap(), 1);
        assert_eq!(p.flag_count("workers", 2).unwrap(), 2);
        for bad in ["2.5", "1.9", "0", "-1", "1e9", "", "two", "99999999999999999999999"] {
            let p = parse(&["farm", "serve", "--workers", bad]).unwrap();
            let err = p.flag_count("workers", 2).unwrap_err();
            assert!(err.contains("--workers expects a positive integer"), "{bad}: {err}");
        }
    }

    #[test]
    fn seeds_are_unsigned_integers() {
        let max = parse(&["farm", "--seed", "18446744073709551615"]).unwrap();
        assert_eq!(max.flag_u64("seed"), Ok(Some(u64::MAX)));
        assert_eq!(parse(&["farm"]).unwrap().flag_u64("seed"), Ok(None));
        for bad in ["7.5", "-3", "1e3", "x"] {
            let p = parse(&["farm", "--seed", bad]).unwrap();
            assert!(p.flag_u64("seed").unwrap_err().contains("--seed expects an unsigned integer"));
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// One argv word: a known or unknown long flag, a flag with an
        /// inline value, a short option, a number-like word, or any text.
        fn word() -> BoxedStrategy<String> {
            prop_oneof![
                (0..VALUE_FLAGS.len()).prop_map(|i| format!("--{}", VALUE_FLAGS[i])),
                Just("--".to_string()),
                Just("-".to_string()),
                "--[a-z-]{0,12}=[0-9.e+-]{0,6}",
                "-[a-z]{0,3}",
                "[0-9.e+-]{0,24}",
                "\\PC{0,10}",
            ]
            .boxed()
        }

        proptest! {
            #[test]
            fn never_panics(argv in proptest::collection::vec(word(), 0..8)) {
                let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
                let Ok(p) = parse(&argv) else { return Ok(()) };
                let _ = (p.command(), p.pos(1), p.pos(2));
                for name in VALUE_FLAGS.iter().copied().chain(["no-cache", ""]) {
                    let _ = (p.has_flag(name), p.flag_value(name), p.flag_num(name, 1.0));
                    let _ = p.flag_u64(name);
                    if let Ok(n) = p.flag_count(name, 1) {
                        prop_assert!(n >= 1, "--{} gave {}", name, n);
                    }
                }
            }
        }
    }
}
