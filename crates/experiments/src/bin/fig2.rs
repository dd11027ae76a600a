//! Regenerates an instance of the paper's Fig. 2 (the firefly spanning
//! tree over 17 UEs).
//! Usage: `fig2 [SEED]`
//!
//! SEED (default 42) varies the deployment. A non-numeric seed or a
//! second argument exits with status 2.

use ffd2d_experiments::or_usage_exit;

const USAGE: &str = "fig2 [SEED]";

/// The deployment seed from `args` (argv, program name first): 42 when
/// absent; an error on a non-numeric seed or an extra argument.
fn seed_from_args(args: &[String]) -> Result<u64, String> {
    match args {
        [] | [_] => Ok(42),
        [_, seed] => seed
            .parse()
            .map_err(|_| format!("SEED must be a non-negative integer, got {seed:?}")),
        [_, _, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = or_usage_exit(seed_from_args(&args), USAGE);
    let fig = ffd2d_experiments::fig2::build(seed);
    print!("{}", fig.rendering);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<u64, String> {
        let argv: Vec<String> = std::iter::once("fig2")
            .chain(args.iter().copied())
            .map(String::from)
            .collect();
        seed_from_args(&argv)
    }

    #[test]
    fn seed_defaults_and_parses() {
        assert_eq!(parse(&[]), Ok(42));
        assert_eq!(parse(&["7"]), Ok(7));
        assert_eq!(parse(&["18446744073709551615"]), Ok(u64::MAX));
    }

    #[test]
    fn malformed_seeds_are_usage_errors() {
        for bad in [
            &["abc"][..],
            &["-1"],
            &["1e3"],
            &["18446744073709551616"],
            &["--seed"],
            &["7", "8"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
