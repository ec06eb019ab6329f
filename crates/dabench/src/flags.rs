//! The one flag reader of every `dabench` command.
//!
//! A command walks its arguments with [`Flags::next_flag`] and takes each
//! flag's value through the typed readers below, so every command rejects
//! a missing value, an unparsable value, an out-of-range value and an
//! unknown flag with the same texts, each naming the command and the flag.
//! [`RunOpts`] reads the supervision and journal flags that the sweeps
//! (`all`, `gen`, `shard-worker`) and `serve` share.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// One command's arguments, read front to back.
pub struct Flags<'a> {
    command: &'a str,
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// A reader over `args`, the arguments of `command`.
    #[must_use]
    pub fn new(command: &'a str, args: &'a [String]) -> Self {
        Self {
            command,
            args: args.iter(),
            flag: "",
        }
    }

    /// Advance to the next argument and return it; `None` after the last.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The argument [`Flags::next_flag`] returned last.
    #[must_use]
    pub fn flag(&self) -> &'a str {
        self.flag
    }

    /// The current flag's value, as given.
    ///
    /// # Errors
    ///
    /// The flag is the last argument.
    pub fn value(&mut self) -> Result<&'a str, String> {
        match self.args.next() {
            Some(value) => Ok(value.as_str()),
            None => Err(self.error("needs a value")),
        }
    }

    /// The current flag's value parsed as `T`.
    ///
    /// # Errors
    ///
    /// A missing or unparsable value.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value()?;
        value
            .parse()
            .map_err(|e| self.error(format_args!("cannot parse `{value}`: {e}")))
    }

    /// The current flag's value as a count of at least 1.
    ///
    /// # Errors
    ///
    /// A missing or unparsable value, or zero.
    pub fn at_least_one<T>(&mut self) -> Result<T, String>
    where
        T: FromStr + PartialOrd + From<u8>,
        T::Err: Display,
    {
        let n: T = self.parse()?;
        if n < T::from(1) {
            return Err(self.error("must be at least 1"));
        }
        Ok(n)
    }

    /// The current flag's value as a positive number of seconds.
    ///
    /// # Errors
    ///
    /// A missing or unparsable value, or one that is not a positive
    /// [`Duration`]: zero, negative, NaN, infinite or beyond `u64::MAX`
    /// seconds.
    pub fn seconds(&mut self) -> Result<Duration, String> {
        let s: f64 = self.parse()?;
        Duration::try_from_secs_f64(s)
            .ok()
            .filter(|d| !d.is_zero())
            .ok_or_else(|| self.error("must be a positive number of seconds below 2^64"))
    }

    /// An error about the current flag: `COMMAND FLAG: DETAIL`.
    #[must_use]
    pub fn error(&self, detail: impl Display) -> String {
        format!("{} {}: {detail}", self.command, self.flag)
    }

    /// The error for a current flag the command does not take.
    #[must_use]
    pub fn unknown(&self) -> String {
        format!("unknown flag `{}` for {}", self.flag, self.command)
    }
}

/// The supervision and journal flags of every supervised run: the
/// sweeps (`all`, `gen` and `shard-worker`) and `serve`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOpts {
    /// Journal directory, from `--run-dir D` or `--resume D`.
    pub run_dir: Option<PathBuf>,
    /// Continue the journal in `run_dir` instead of starting one. Of
    /// `--run-dir` and `--resume`, the later flag wins.
    pub resume: bool,
    /// `--deadline-s S`: wall-clock budget per attempt.
    pub deadline: Option<Duration>,
    /// `--max-retries N`: retries of a retryable platform error.
    pub max_retries: u32,
}

impl RunOpts {
    /// Read the current flag of `flags` into these options.
    ///
    /// # Errors
    ///
    /// A bad value, or a flag that is not one of these options.
    pub fn read(&mut self, flags: &mut Flags<'_>) -> Result<(), String> {
        match flags.flag() {
            flag @ ("--run-dir" | "--resume") => {
                self.run_dir = Some(flags.value()?.into());
                self.resume = flag == "--resume";
            }
            "--deadline-s" => self.deadline = Some(flags.seconds()?),
            "--max-retries" => self.max_retries = flags.parse()?,
            _ => return Err(flags.unknown()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    fn run_opts(list: &[&str]) -> Result<RunOpts, String> {
        let args = args(list);
        let mut opts = RunOpts::default();
        let mut flags = Flags::new("all", &args);
        while flags.next_flag().is_some() {
            opts.read(&mut flags)?;
        }
        Ok(opts)
    }

    #[test]
    fn the_later_of_run_dir_and_resume_wins() {
        let opts = run_opts(&["--resume", "a", "--run-dir", "b"]).unwrap();
        assert_eq!(opts.run_dir.as_deref(), Some(std::path::Path::new("b")));
        assert!(!opts.resume);
        let opts = run_opts(&["--run-dir", "b", "--resume", "a"]).unwrap();
        assert_eq!(opts.run_dir.as_deref(), Some(std::path::Path::new("a")));
        assert!(opts.resume);
    }

    #[test]
    fn errors_name_the_command_and_the_flag() {
        assert_eq!(
            run_opts(&["--run-dir"]).unwrap_err(),
            "all --run-dir: needs a value"
        );
        assert_eq!(
            run_opts(&["--max-retries", "x"]).unwrap_err(),
            "all --max-retries: cannot parse `x`: invalid digit found in string"
        );
        assert_eq!(
            run_opts(&["--bogus"]).unwrap_err(),
            "unknown flag `--bogus` for all"
        );
        for bad in ["0", "-1", "nan", "inf", "1e300"] {
            let e = run_opts(&["--deadline-s", bad]).unwrap_err();
            assert!(e.starts_with("all --deadline-s: "), "{e}");
        }
        assert_eq!(
            run_opts(&["--deadline-s", "1.5"]).unwrap().deadline,
            Some(Duration::from_millis(1500))
        );
    }

    #[test]
    fn counts_must_be_at_least_one() {
        let args = args(&["--n", "0", "--n", "3"]);
        let mut flags = Flags::new("serve", &args);
        flags.next_flag();
        assert_eq!(
            flags.at_least_one::<usize>().unwrap_err(),
            "serve --n: must be at least 1"
        );
        flags.next_flag();
        assert_eq!(flags.at_least_one::<usize>(), Ok(3));
        assert_eq!(flags.next_flag(), None);
    }
}
