//! Command-line flags, scanned one way for every binary in the workspace:
//! `--name V` or `--name=V`, repeatable, and a name with no value after it
//! is an error rather than a silent default.

use std::str::FromStr;

/// Presence of a bare `name` flag.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Every value given for `name`, in order. Errs when `name` is the last
/// argument, with no value after it.
pub fn flag_values(args: &[String], name: &str) -> Result<Vec<String>, String> {
    let prefix = format!("{name}=");
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            out.push(it.next().ok_or_else(|| format!("{name} needs a value"))?.clone());
        } else if let Some(v) = a.strip_prefix(&prefix) {
            out.push(v.to_string());
        }
    }
    Ok(out)
}

/// The first value given for `name`, if any (see [`flag_values`]).
pub fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    Ok(flag_values(args, name)?.into_iter().next())
}

/// The first value given for `name`, parsed as `T`; `Ok(None)` when the
/// flag is absent.
pub fn parse_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse().map_err(|_| {
                format!("unparseable {name} value {v:?} (expected {})", std::any::type_name::<T>())
            })
        })
        .transpose()
}

/// [`parse_flag`] for a binary's `main`, through [`or_exit`].
pub fn flag_or_exit<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    or_exit(parse_flag(args, name))
}

/// The value of a start-up check (a flag, an environment variable), or its
/// error printed and exit 2: every binary's usage errors end here.
pub fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod unit {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn both_forms_and_repeats_are_read_in_order() {
        let a = args(&["--quick", "--n", "3", "--m=x", "--n=4", "--quick"]);
        assert!(has_flag(&a, "--quick"));
        assert!(!has_flag(&a, "--slow"));
        assert_eq!(flag_values(&a, "--n").unwrap(), ["3", "4"]);
        assert_eq!(flag_value(&a, "--n").unwrap().as_deref(), Some("3"));
        assert_eq!(flag_value(&a, "--m").unwrap().as_deref(), Some("x"));
        assert_eq!(flag_value(&a, "--absent").unwrap(), None);
        assert_eq!(parse_flag::<u64>(&a, "--n"), Ok(Some(3)));
        assert_eq!(parse_flag::<u64>(&a, "--absent"), Ok(None));
    }

    #[test]
    fn a_trailing_name_with_no_value_is_an_error() {
        let a = args(&["--n", "3", "--n"]);
        assert_eq!(flag_values(&a, "--n").unwrap_err(), "--n needs a value");
        assert!(flag_value(&a, "--n").is_err());
        assert!(parse_flag::<u64>(&a, "--n").is_err());
        // Only the named flag is affected.
        assert_eq!(flag_value(&a, "--m"), Ok(None));
    }

    #[test]
    fn an_unparseable_value_names_the_flag_and_value() {
        let a = args(&["--burst", "4x"]);
        let e = parse_flag::<usize>(&a, "--burst").unwrap_err();
        assert_eq!(e, "unparseable --burst value \"4x\" (expected usize)");
        assert_eq!(parse_flag::<String>(&a, "--burst"), Ok(Some("4x".to_string())));
    }
}
