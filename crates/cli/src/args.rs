//! One option table per command. A [`Command`]'s `opts` is the only place an
//! option's name, arity, default and description exist: [`Args::parse`]
//! validates a command line against it before the command does any work, the
//! accessors take their defaults from it, and `--help` and README's CLI
//! reference are rendered from it.

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::str::FromStr;

/// One row of a command's option table.
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    pub name: &'static str,
    /// Metavariable of the option's value; `None` makes it a boolean flag.
    pub value: Option<&'static str>,
    pub default: Option<&'static str>,
    /// May be given more than once, every value kept ([`Args::all`]). Any
    /// other option given twice resolves to its last value.
    pub repeat: bool,
    pub required: bool,
    /// The option this one modifies: giving it without its parent is an error.
    pub needs: Option<&'static str>,
    pub help: &'static str,
}

impl Opt {
    const fn new(name: &'static str, value: Option<&'static str>, help: &'static str) -> Opt {
        Opt { name, value, default: None, repeat: false, required: false, needs: None, help }
    }

    /// Boolean flag.
    pub const fn flag(name: &'static str, help: &'static str) -> Opt {
        Opt::new(name, None, help)
    }

    /// Valued option with no static default ([`Args::get`], [`Args::num_opt`]).
    pub const fn maybe(name: &'static str, value: &'static str, help: &'static str) -> Opt {
        Opt::new(name, Some(value), help)
    }

    /// Valued option with a default.
    pub const fn val(
        name: &'static str,
        value: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Opt {
        Opt { default: Some(default), ..Opt::new(name, Some(value), help) }
    }

    /// Valued option that must be given.
    pub const fn req(name: &'static str, value: &'static str, help: &'static str) -> Opt {
        Opt { required: true, ..Opt::new(name, Some(value), help) }
    }

    pub const fn needs(self, parent: &'static str) -> Opt {
        Opt { needs: Some(parent), ..self }
    }

    pub const fn repeat(self) -> Opt {
        Opt { repeat: true, ..self }
    }
}

/// A `faasrail` command: its option table and the function the table feeds.
pub struct Command {
    /// One or two words (`replay`, `fleet coordinate`).
    pub name: &'static str,
    pub about: &'static str,
    /// Names of the bare arguments the command takes, in order.
    pub positionals: &'static [&'static str],
    pub opts: &'static [Opt],
    pub run: fn(&Args) -> Result<(), String>,
}

impl Command {
    fn find(&self, name: &str) -> Option<&'static Opt> {
        self.opts.iter().find(|o| o.name == name)
    }

    /// What `faasrail <command> --help` prints: usage line, then one row per
    /// option, an option that `needs` another indented under it.
    pub fn help(&self) -> String {
        let mut out =
            format!("faasrail {} — {}\n\nusage: faasrail {}", self.name, self.about, self.name);
        for p in self.positionals {
            let _ = write!(out, " {p}");
        }
        out.push_str(if self.opts.is_empty() { "\n" } else { " [options]\n\noptions:\n" });
        let depth = |o: &Opt| std::iter::successors(Some(o), |o| self.find(o.needs?)).count();
        let left = |o: &Opt| {
            let value = o.value.map(|v| format!(" {v}")).unwrap_or_default();
            format!("{:indent$}--{}{value}", "", o.name, indent = 2 * depth(o))
        };
        let width = self.opts.iter().map(|o| left(o).len()).max().unwrap_or(0);
        self.help_rows(None, &mut |o| {
            let _ = write!(out, "{:width$}  {}", left(o), o.help);
            if let Some(d) = o.default {
                let _ = write!(out, " [default: {d}]");
            }
            out.push_str(match (o.required, o.repeat) {
                (true, true) => " (required, repeatable)\n",
                (true, false) => " (required)\n",
                (false, true) => " (repeatable)\n",
                (false, false) => "\n",
            });
        });
        out
    }

    /// Visit the rows whose parent is `parent`, each followed by its children.
    fn help_rows(&self, parent: Option<&str>, visit: &mut impl FnMut(&Opt)) {
        for o in self.opts.iter().filter(|o| o.needs == parent) {
            visit(o);
            self.help_rows(Some(o.name), visit);
        }
    }
}

/// What `faasrail --help` prints: every command with its one-line summary.
pub fn overview(commands: &[&Command]) -> String {
    let mut out = String::from(
        "faasrail — the FaaSRail shrink ray and load generator\n\n\
         usage: faasrail <command> [options]\n       \
         faasrail <command> --help\n\ncommands:\n",
    );
    let width = commands.iter().map(|c| c.name.len()).max().unwrap_or(0);
    for c in commands {
        let _ = writeln!(out, "  {:width$}  {}", c.name, c.about);
    }
    out
}

/// A command line checked against its command's table.
pub struct Args {
    cmd: &'static Command,
    /// Options given, with their values in order (none for a flag).
    given: BTreeMap<&'static str, Vec<String>>,
    positionals: Vec<String>,
}

impl Args {
    /// Check `argv` (the words after the command's name) against `cmd`'s
    /// table. Refused: an option the table lacks, a valued option without a
    /// value, a flag followed by one, a missing required option, an option
    /// whose `needs` parent is absent, a bare word the command has no
    /// positional for, and too few positionals.
    pub fn parse<I>(cmd: &'static Command, argv: I) -> Result<Args, String>
    where
        I: IntoIterator<Item = String>,
    {
        let of = format!("`faasrail {}`", cmd.name);
        let mut args = Args { cmd, given: BTreeMap::new(), positionals: Vec::new() };
        let mut argv = argv.into_iter().peekable();
        let mut last_flag = None;
        while let Some(tok) = argv.next() {
            let Some(name) = tok.strip_prefix("--") else {
                if args.positionals.len() < cmd.positionals.len() {
                    args.positionals.push(tok);
                    continue;
                }
                return Err(match last_flag {
                    Some(flag) => format!("flag --{flag} of {of} takes no value (found `{tok}`)"),
                    None => format!("unexpected argument `{tok}` for {of}"),
                });
            };
            let opt = cmd.find(name).ok_or_else(|| format!("unknown option --{name} for {of}"))?;
            let values = args.given.entry(opt.name).or_default();
            last_flag = None;
            match opt.value {
                None => last_flag = Some(opt.name),
                Some(metavar) => match argv.next_if(|next| !next.starts_with("--")) {
                    Some(value) => values.push(value),
                    None => {
                        return Err(format!("option --{name} of {of} needs a value ({metavar})"))
                    }
                },
            }
        }
        if args.positionals.len() < cmd.positionals.len() {
            return Err(format!(
                "{of} takes {} positional argument(s) ({}), found {}",
                cmd.positionals.len(),
                cmd.positionals.join(" "),
                args.positionals.len()
            ));
        }
        for opt in cmd.opts {
            let given = args.given.contains_key(opt.name);
            if opt.required && !given {
                return Err(format!("missing required option --{} for {of}", opt.name));
            }
            if let Some(parent) = opt.needs.filter(|p| given && !args.given.contains_key(p)) {
                return Err(format!("option --{} of {of} needs --{parent}", opt.name));
            }
        }
        Ok(args)
    }

    /// The table row of `name`. A name the table lacks is a bug in the
    /// command, not in its input.
    fn opt(&self, name: &str) -> &'static Opt {
        self.cmd.find(name).unwrap_or_else(|| {
            panic!("`faasrail {}` reads --{name}, not in its table", self.cmd.name)
        })
    }

    fn invalid(&self, name: &str, value: impl Display, why: impl Display) -> String {
        format!("invalid value `{value}` for --{name} of `faasrail {}`: {why}", self.cmd.name)
    }

    /// Bare arguments, in order; as many as the command's table names.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.contains_key(self.opt(name).name)
    }

    /// The last value given, else the table's default, else `None`.
    pub fn get(&self, name: &str) -> Option<&str> {
        let opt = self.opt(name);
        self.given.get(name).and_then(|v| v.last()).map(String::as_str).or(opt.default)
    }

    /// Value of an option that is required or has a default.
    pub fn str(&self, name: &str) -> &str {
        self.get(name).unwrap_or_else(|| {
            panic!("--{name} of `faasrail {}` is neither required nor defaulted", self.cmd.name)
        })
    }

    /// Every value a repeatable option was given, in order; its default
    /// alone when it was not given.
    pub fn all(&self, name: &str) -> Vec<&str> {
        match self.given.get(name) {
            Some(values) => values.iter().map(String::as_str).collect(),
            None => self.opt(name).default.into_iter().collect(),
        }
    }

    /// Parsed value of an option that is required or has a default.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<T, String> {
        let s = self.str(name);
        let why = format_args!("not a {}", std::any::type_name::<T>());
        s.parse().map_err(|_| self.invalid(name, s, why))
    }

    /// Parsed value of an option with no static default.
    pub fn num_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name).map(|_| self.num(name)).transpose()
    }

    /// A count: an integer of at least one.
    pub fn count<T>(&self, name: &str) -> Result<T, String>
    where
        T: FromStr + PartialOrd + From<u8> + Display,
    {
        let n: T = self.num(name)?;
        if n < T::from(1) {
            return Err(self.invalid(name, n, "must be at least 1"));
        }
        Ok(n)
    }

    /// A finite number above zero.
    pub fn positive(&self, name: &str) -> Result<f64, String> {
        let x: f64 = self.num(name)?;
        if !(x.is_finite() && x > 0.0) {
            return Err(self.invalid(name, x, "must be finite and above 0"));
        }
        Ok(x)
    }

    /// A number in `[0, 1]`.
    pub fn fraction(&self, name: &str) -> Result<f64, String> {
        let x: f64 = self.num(name)?;
        if !(0.0..=1.0).contains(&x) {
            return Err(self.invalid(name, x, "must be within [0, 1]"));
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nothing(_: &Args) -> Result<(), String> {
        Ok(())
    }

    static SHRINK: Command = Command {
        name: "shrink",
        about: "test table",
        positionals: &[],
        opts: &[
            Opt::val("minutes", "N", "120", "experiment length"),
            Opt::val("max-rps", "X", "20", "peak rate"),
            Opt::val("kind", "KIND", "azure", "trace kind"),
            Opt::req("out", "FILE", "output"),
            Opt::maybe("minute-range", "START", "window start"),
            Opt::flag("verbose", "chatty"),
            Opt::flag("reactor", "event loop"),
            Opt::val("shards", "N", "1", "event-loop shards").needs("reactor"),
            Opt::req("events", "FILE", "span log").repeat(),
            Opt::maybe("server-events", "FILE", "server span log").repeat(),
        ],
        run: nothing,
    };

    static DIFF: Command = Command {
        name: "bench diff",
        about: "test table",
        positionals: &["OLD.json", "NEW.json"],
        opts: &[Opt::val("threshold", "X", "0.10", "gate"), Opt::flag("advisory", "never fail")],
        run: nothing,
    };

    fn parse(cmd: &'static Command, v: &[&str]) -> Result<Args, String> {
        Args::parse(cmd, v.iter().map(|s| s.to_string()))
    }

    fn err(cmd: &'static Command, v: &[&str]) -> String {
        parse(cmd, v).err().unwrap_or_else(|| panic!("{v:?} must be refused"))
    }

    const REQUIRED: [&str; 4] = ["--out", "o.json", "--events", "a.jsonl"];

    fn shrink(extra: &[&str]) -> Result<Args, String> {
        parse(&SHRINK, &[&REQUIRED, extra].concat())
    }

    #[test]
    fn basic_parse() {
        let a = shrink(&["--minutes", "90", "--max-rps", "20", "--verbose"]).unwrap();
        assert_eq!(a.get("minutes"), Some("90"));
        assert_eq!(a.num::<f64>("max-rps").unwrap(), 20.0);
        assert!(a.flag("verbose"));
        assert!(!a.flag("reactor"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = shrink(&[]).unwrap();
        assert_eq!(a.str("kind"), "azure");
        assert_eq!(a.num::<usize>("minutes").unwrap(), 120);
        assert_eq!(a.get("minute-range"), None);
        assert_eq!(a.num_opt::<usize>("minute-range").unwrap(), None);
        let e = err(&SHRINK, &["--events", "a.jsonl"]);
        assert!(
            e.contains("missing required option --out") && e.contains("`faasrail shrink`"),
            "{e}"
        );
    }

    #[test]
    fn rejects_unknown_options() {
        let e = shrink(&["--minuts", "5"]).err().unwrap();
        assert!(e.contains("unknown option --minuts") && e.contains("`faasrail shrink`"), "{e}");
    }

    #[test]
    fn positionals_are_collected_and_gated() {
        let e = shrink(&["stray"]).err().unwrap();
        assert!(
            e.contains("unexpected argument `stray`"),
            "option-only commands reject strays: {e}"
        );
        let e = shrink(&["--minutes", "1", "stray"]).err().unwrap();
        assert!(e.contains("unexpected argument `stray`"), "{e}");
    }

    #[test]
    fn bench_diff_positional_grammar() {
        let a = parse(&DIFF, &["old.json", "new.json", "--threshold", "0.1"]).unwrap();
        assert_eq!(a.positionals(), ["old.json".to_string(), "new.json".to_string()]);
        assert_eq!(a.get("threshold"), Some("0.1"));
        let a = parse(&DIFF, &["--advisory", "old.json", "new.json"]).unwrap();
        assert!(a.flag("advisory"), "a flag does not swallow the positional after it");
        assert_eq!(a.positionals().len(), 2);
        assert!(err(&DIFF, &["only.json"])
            .contains("takes 2 positional argument(s) (OLD.json NEW.json)"));
        assert!(err(&DIFF, &["a", "b", "c"]).contains("unexpected argument `c`"));
    }

    #[test]
    fn repeated_option_accumulates() {
        let a =
            parse(&SHRINK, &["--out", "o", "--events", "a.jsonl", "--events", "b.jsonl"]).unwrap();
        assert_eq!(a.all("events"), ["a.jsonl", "b.jsonl"]);
        assert_eq!(a.get("events"), Some("b.jsonl"), "get() is the last value");
        assert!(a.all("server-events").is_empty());
    }

    #[test]
    fn repeated_plain_option_is_last_wins_and_defaults_fill_all() {
        let a = shrink(&["--minutes", "1", "--minutes", "2"]).unwrap();
        assert_eq!(a.num::<usize>("minutes").unwrap(), 2);
        assert_eq!(a.all("kind"), ["azure"], "an absent option reads as its default alone");
    }

    #[test]
    fn trailing_flag_and_flag_given_a_value() {
        assert!(shrink(&["--verbose"]).unwrap().flag("verbose"));
        let e = shrink(&["--reactor", "2"]).err().unwrap();
        assert!(e.contains("flag --reactor") && e.contains("takes no value (found `2`)"), "{e}");
    }

    #[test]
    fn valued_option_without_a_value() {
        for argv in [&["--minutes"][..], &["--minutes", "--verbose"]] {
            let e = shrink(argv).err().unwrap();
            assert!(e.contains("option --minutes") && e.contains("needs a value (N)"), "{e}");
        }
    }

    #[test]
    fn needs_parent() {
        let e = shrink(&["--shards", "2"]).err().unwrap();
        assert!(e.contains("option --shards") && e.contains("needs --reactor"), "{e}");
        assert_eq!(
            shrink(&["--reactor", "--shards", "2"]).unwrap().count::<usize>("shards"),
            Ok(2)
        );
    }

    #[test]
    fn invalid_number_and_ranges() {
        let a = shrink(&["--minutes", "abc", "--max-rps", "-0.5", "--shards", "0", "--reactor"])
            .unwrap();
        let e = a.num::<u32>("minutes").unwrap_err();
        assert!(
            e.contains("--minutes") && e.contains("abc") && e.contains("`faasrail shrink`"),
            "{e}"
        );
        assert!(a.count::<u32>("shards").unwrap_err().contains("at least 1"));
        assert!(a.positive("max-rps").unwrap_err().contains("above 0"));
        assert!(a.fraction("max-rps").unwrap_err().contains("[0, 1]"));
        let a = shrink(&["--max-rps", "NaN"]).unwrap();
        assert!(a.positive("max-rps").is_err() && a.fraction("max-rps").is_err());
        assert_eq!(shrink(&["--max-rps", "1"]).unwrap().fraction("max-rps").unwrap(), 1.0);
    }

    #[test]
    #[should_panic(expected = "not in its table")]
    fn reading_an_option_the_table_lacks_is_a_bug() {
        shrink(&[]).unwrap().get("seed");
    }

    #[test]
    fn help_nests_children_under_their_parent() {
        let help = SHRINK.help();
        let lines: Vec<&str> = help.lines().collect();
        let reactor = lines.iter().position(|l| l.starts_with("  --reactor")).expect("reactor row");
        assert!(lines[reactor + 1].starts_with("    --shards N"), "{help}");
        assert!(
            help.contains("[default: 120]") && help.contains("(required, repeatable)"),
            "{help}"
        );
        assert!(DIFF.help().contains("usage: faasrail bench diff OLD.json NEW.json [options]"));
    }
}
