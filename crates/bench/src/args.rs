//! The `varbench` CLI's flag parser, and the effort presets it shares
//! with the artifact registry.
//!
//! Every subcommand declares the flags it accepts as [`Flag`] tables and
//! parses its arguments with one [`Args::parse`] call. The accessors
//! then read each setting from one place.

use std::str::FromStr;

use varbench_core::exec::Runner;
use varbench_pipeline::Scale;

/// A flag a subcommand accepts: its name and what its value is (`"a
/// count"`, `"milliseconds"`), or `None` for a switch.
pub type Flag = (&'static str, Option<&'static str>);

/// The effort presets. The last one given wins; the default is
/// `--quick`.
pub const EFFORT: &[Flag] = &[("--test", None), ("--quick", None), ("--full", None)];

/// The executor knobs (see [`Args::runner`]).
pub const EXEC: &[Flag] = &[("--serial", None), ("--threads", Some("a number"))];

/// One subcommand's arguments: the flags it was given, in order, and its
/// positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    /// The positional arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `args` against the flags `tables` declare for `cmd`. An
    /// argument that starts with `-` is a flag, anything else is
    /// positional, and a flag that takes a value takes the next argument
    /// whatever it is.
    ///
    /// An unknown flag is an **error**, not a no-op: a `--ful` typo must
    /// fail fast instead of silently running hours of Quick-effort
    /// measurements. So is a flag missing its value.
    pub fn parse(cmd: &str, tables: &[&[Flag]], args: &[String]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                parsed.positional.push(arg.clone());
                continue;
            }
            let Some(&(name, what)) = tables.iter().flat_map(|t| t.iter()).find(|f| f.0 == arg)
            else {
                return Err(format!("unknown {cmd} flag '{arg}'"));
            };
            let value = match what {
                Some(what) => Some(it.next().ok_or(format!("{name} needs {what}"))?.clone()),
                None => None,
            };
            parsed.flags.push((name, value));
        }
        Ok(parsed)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// The value `flag` was last given.
    pub fn str(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(name, _)| *name == flag)?;
        value.as_deref()
    }

    /// The value `flag` was last given, parsed; an error names the flag
    /// and the value.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.str(flag)
            .map(|v| v.parse().map_err(|_| format!("invalid {flag} value '{v}'")))
            .transpose()
    }

    /// Which of `switches`, which override each other, was given last.
    pub fn last(&self, switches: &[&str]) -> Option<&'static str> {
        let mut given = self.flags.iter().rev().map(|(name, _)| *name);
        given.find(|name| switches.contains(name))
    }

    /// The effort preset (see [`EFFORT`]).
    pub fn effort(&self) -> Effort {
        self.last(&["--test", "--quick", "--full"])
            .and_then(Effort::from_flag)
            .unwrap_or(Effort::Quick)
    }

    /// The executor [`EXEC`] selects: `--serial` wins over `--threads
    /// N`, and with neither, `VARBENCH_THREADS` or all cores.
    pub fn runner(&self) -> Result<Runner, String> {
        Ok(match (self.has("--serial"), self.get("--threads")?) {
            (true, _) => Runner::serial(),
            (false, Some(n)) => Runner::new(n),
            (false, None) => Runner::from_env(),
        })
    }
}

/// Effort preset selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// `--test`: smallest sizes (CI smoke run).
    Test,
    /// Default: minutes-scale reproduction.
    Quick,
    /// `--full`: paper-faithful sizes (hours).
    Full,
}

impl Effort {
    /// Maps a single effort flag (`--test` / `--quick` / `--full`) to its
    /// preset; `None` for anything else.
    pub fn from_flag(flag: &str) -> Option<Effort> {
        match flag {
            "--full" => Some(Effort::Full),
            "--test" => Some(Effort::Test),
            "--quick" => Some(Effort::Quick),
            _ => None,
        }
    }

    /// Maps a stable label (`test` / `quick` / `full` — the
    /// [`Effort::label`] vocabulary, used by the serve protocol) to its
    /// preset; `None` for anything else.
    pub fn from_label(label: &str) -> Option<Effort> {
        match label {
            "test" => Some(Effort::Test),
            "quick" => Some(Effort::Quick),
            "full" => Some(Effort::Full),
            _ => None,
        }
    }

    /// The case-study scale this effort implies.
    pub fn scale(&self) -> Scale {
        match self {
            Effort::Test => Scale::Test,
            Effort::Quick => Scale::Quick,
            Effort::Full => Scale::Full,
        }
    }

    /// Stable lowercase label (CLI/JSON output).
    pub fn label(&self) -> &'static str {
        match self {
            Effort::Test => "test",
            Effort::Quick => "quick",
            Effort::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMAT: &[Flag] = &[
        ("--json", None),
        ("--csv", None),
        ("--seeds", Some("a count")),
    ];

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse("demo", &[EFFORT, EXEC, FORMAT], &args)
    }

    #[test]
    fn parses_flags() {
        let a = parse(&["one", "--seeds", "7", "two", "--json", "three"]).unwrap();
        assert_eq!(a.positional, ["one", "two", "three"], "in order");
        assert!(a.has("--json") && !a.has("--csv"));
        assert_eq!(a.str("--seeds"), Some("7"));
        assert_eq!(a.get::<usize>("--seeds"), Ok(Some(7)));
        assert_eq!(a.get::<usize>("--threads"), Ok(None));
        assert_eq!(a.effort(), Effort::Quick, "the default");
        // A value-taking flag takes the next argument, dash or not.
        let a = parse(&["--seeds", "-3"]).unwrap();
        assert_eq!(a.get::<i64>("--seeds"), Ok(Some(-3)));
        assert!(a.positional.is_empty());
    }

    #[test]
    fn the_last_of_overriding_flags_wins() {
        let effort = |args: &[&str]| parse(args).unwrap().effort();
        assert_eq!(effort(&["--full"]), Effort::Full);
        assert_eq!(effort(&["--test"]), Effort::Test);
        assert_eq!(effort(&["--full", "--quick"]), Effort::Quick);
        assert_eq!(effort(&["--quick", "--json", "--test"]), Effort::Test);

        let format = |args: &[&str]| parse(args).unwrap().last(&["--json", "--csv"]);
        assert_eq!(format(&[]), None);
        assert_eq!(format(&["--json", "--csv"]), Some("--csv"));
        assert_eq!(format(&["--csv", "--test", "--json"]), Some("--json"));

        let a = parse(&["--seeds", "3", "--seeds", "4"]).unwrap();
        assert_eq!(a.get::<usize>("--seeds"), Ok(Some(4)));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(parse(&["--ful"]).unwrap_err(), "unknown demo flag '--ful'");
        assert_eq!(
            parse(&["--test", "-x"]).unwrap_err(),
            "unknown demo flag '-x'"
        );
        let no_tables = Args::parse("list", &[], &["--json".to_string()]);
        assert_eq!(no_tables.unwrap_err(), "unknown list flag '--json'");
    }

    #[test]
    fn a_flag_missing_its_value_is_rejected() {
        assert_eq!(parse(&["--seeds"]).unwrap_err(), "--seeds needs a count");
        assert_eq!(
            parse(&["--test", "--threads"]).unwrap_err(),
            "--threads needs a number"
        );
    }

    #[test]
    fn a_bad_value_names_the_flag_and_the_value() {
        let a = parse(&["--seeds", "many", "--threads", "-1"]).unwrap();
        assert_eq!(
            a.get::<usize>("--seeds"),
            Err("invalid --seeds value 'many'".to_string())
        );
        assert_eq!(a.runner(), Err("invalid --threads value '-1'".to_string()));
    }

    #[test]
    fn runner_follows_serial_then_threads_then_the_environment() {
        let runner = |args: &[&str]| parse(args).unwrap().runner().unwrap();
        assert_eq!(runner(&["--serial"]), Runner::serial());
        assert_eq!(runner(&["--threads", "3", "--serial"]), Runner::serial());
        assert_eq!(runner(&["--threads", "3"]), Runner::new(3));
        assert_eq!(runner(&[]), Runner::from_env());
    }

    #[test]
    fn scales_and_labels_map() {
        assert_eq!(Effort::Test.scale(), Scale::Test);
        assert_eq!(Effort::Quick.scale(), Scale::Quick);
        assert_eq!(Effort::Full.scale(), Scale::Full);
        assert_eq!(Effort::Full.label(), "full");
        assert_eq!(Effort::from_flag("--test"), Some(Effort::Test));
        assert_eq!(Effort::from_flag("--nope"), None);
    }

    #[test]
    fn labels_round_trip() {
        for e in [Effort::Test, Effort::Quick, Effort::Full] {
            assert_eq!(Effort::from_label(e.label()), Some(e));
        }
        assert_eq!(Effort::from_label("--test"), None);
        assert_eq!(Effort::from_label("Full"), None);
    }
}
