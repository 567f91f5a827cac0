//! The request-line prelude, parsed in one place for every surface that
//! reads a request line: `coqld` (which acts on it), `coqld-router`
//! (which forwards the original line but needs its timeout and reply
//! shape), and `coqlc` (which needs the reply shape to know where a reply
//! ends).
//!
//! A request line is `[CERT] [EXPLAIN] [TIMEOUT <ms>] [BUDGET <steps>]
//! <VERB> <rest>`, prefixes in any order, keywords case-insensitive.

use std::time::Duration;

use crate::deadline::RequestBudget;

/// The parsed head of one request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prelude<'a> {
    /// Deadline/step limits: the caller's default timeout, overridden by
    /// any `TIMEOUT <ms>` / `BUDGET <steps>` prefix (`0` clears a limit).
    pub budget: RequestBudget,
    /// `EXPLAIN` asked for the per-phase breakdown.
    pub explain: bool,
    /// `CERT` asked for a proof-carrying verdict.
    pub cert: bool,
    /// The command verb, upper-cased.
    pub verb: String,
    /// Everything after the verb, trimmed.
    pub rest: &'a str,
}

impl Prelude<'_> {
    /// The line that closes a successful reply to this request, `None`
    /// for single-line replies. (`ERR` replies are always single lines.)
    pub fn terminator(&self) -> Option<&'static str> {
        match self.verb.as_str() {
            "STATS" | "SHARDS" | "SNAPEXPORT" => Some("END"),
            "METRICS" => Some("# EOF"),
            verb if is_decision_verb(verb) && (self.explain || self.cert) => Some("END"),
            _ => None,
        }
    }
}

/// The verbs that decide containment — the only ones `EXPLAIN` and
/// `CERT` apply to.
fn is_decision_verb(verb: &str) -> bool {
    matches!(verb, "CHECK" | "EQUIV" | "UCHECK" | "UEQUIV")
}

/// Parses the prelude of a (trimmed, non-comment) request line, starting
/// from `default_timeout`. The `Err` text is the body of the `ERR` reply.
pub fn parse_prelude(line: &str, default_timeout: Option<Duration>) -> Result<Prelude<'_>, String> {
    let mut budget = RequestBudget { timeout: default_timeout, steps: None };
    let mut explain = false;
    let mut cert = false;
    let mut rest = line;
    loop {
        let (head, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        let upper = head.to_ascii_uppercase();
        if upper == "EXPLAIN" {
            explain = true;
            rest = tail.trim_start();
            continue;
        }
        if upper == "CERT" {
            cert = true;
            rest = tail.trim_start();
            continue;
        }
        if upper != "TIMEOUT" && upper != "BUDGET" {
            break;
        }
        let tail = tail.trim_start();
        let (value, after) = tail.split_once(char::is_whitespace).unwrap_or((tail, ""));
        let n: u64 = value
            .parse()
            .map_err(|_| format!("usage: {upper} <n> <command ...> (got `{value}`)"))?;
        if upper == "TIMEOUT" {
            budget.timeout = if n == 0 { None } else { Some(Duration::from_millis(n)) };
        } else {
            budget.steps = if n == 0 { None } else { Some(n) };
        }
        rest = after.trim_start();
    }
    if rest.is_empty() {
        return Err("usage: [CERT] [EXPLAIN] [TIMEOUT <ms>] [BUDGET <steps>] <command ...>".into());
    }
    let (verb, rest) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    let verb = verb.to_ascii_uppercase();
    if !is_decision_verb(&verb) {
        if explain {
            return Err("EXPLAIN applies only to CHECK, EQUIV, UCHECK, and UEQUIV".into());
        }
        if cert {
            return Err("CERT applies only to CHECK, EQUIV, UCHECK, and UEQUIV".into());
        }
    }
    Ok(Prelude { budget, explain, cert, verb, rest: rest.trim() })
}

/// Splits `<head> <tail>`, erroring with a usage hint when `tail` is
/// missing.
pub fn split_head<'a>(rest: &'a str, usage: &str) -> Result<(&'a str, &'a str), String> {
    match rest.split_once(char::is_whitespace) {
        Some((head, tail)) if !tail.trim().is_empty() => Ok((head, tail.trim())),
        _ => Err(format!("usage: {usage}")),
    }
}

/// Splits `<schema> <q1> ;; <q2>` into its three trimmed, non-empty
/// parts, erroring with a usage hint otherwise.
pub fn split_pair<'a>(rest: &'a str, usage: &str) -> Result<(&'a str, &'a str, &'a str), String> {
    let (schema, queries) = split_head(rest, usage)?;
    match queries.split_once(";;") {
        Some((q1, q2)) if !q1.trim().is_empty() && !q2.trim().is_empty() => {
            Ok((schema, q1.trim(), q2.trim()))
        }
        _ => Err(format!("usage: {usage}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_combine_in_any_order() {
        let p = parse_prelude("TIMEOUT 250 BUDGET 9 check s a ;; b", None).unwrap();
        assert_eq!(p.budget.timeout, Some(Duration::from_millis(250)));
        assert_eq!(p.budget.steps, Some(9));
        assert!(!p.explain && !p.cert);
        assert_eq!((p.verb.as_str(), p.rest), ("CHECK", "s a ;; b"));
        let p = parse_prelude("CERT TIMEOUT 250 EXPLAIN CHECK s a ;; b", None).unwrap();
        assert_eq!(p.budget.timeout, Some(Duration::from_millis(250)));
        assert!(p.explain && p.cert);
        assert_eq!((p.verb.as_str(), p.rest), ("CHECK", "s a ;; b"));
        let p = parse_prelude("cert explain timeout 0 UCHECK s a or b ;; c", None).unwrap();
        assert_eq!(p.budget.timeout, None);
        assert!(p.explain && p.cert);
        assert_eq!(p.verb, "UCHECK");
    }

    #[test]
    fn zero_clears_the_default_timeout() {
        let p = parse_prelude("TIMEOUT 0 STATS", Some(Duration::from_secs(1))).unwrap();
        assert_eq!(p.budget.timeout, None);
        assert_eq!((p.verb.as_str(), p.rest), ("STATS", ""));
        let p = parse_prelude("STATS", Some(Duration::from_secs(1))).unwrap();
        assert_eq!(p.budget.timeout, Some(Duration::from_secs(1)));
    }

    #[test]
    fn malformed_preludes_answer_the_protocol_errors() {
        assert_eq!(
            parse_prelude("TIMEOUT nope CHECK", None).unwrap_err(),
            "usage: TIMEOUT <n> <command ...> (got `nope`)"
        );
        assert_eq!(
            parse_prelude("BUDGET 50", None).unwrap_err(),
            "usage: [CERT] [EXPLAIN] [TIMEOUT <ms>] [BUDGET <steps>] <command ...>"
        );
        assert_eq!(
            parse_prelude("EXPLAIN STATS", None).unwrap_err(),
            "EXPLAIN applies only to CHECK, EQUIV, UCHECK, and UEQUIV"
        );
        assert_eq!(
            parse_prelude("CERT AGG q(X) :- R(X). ;; q(X) :- R(X).", None).unwrap_err(),
            "CERT applies only to CHECK, EQUIV, UCHECK, and UEQUIV"
        );
    }

    #[test]
    fn terminators_follow_the_reply_framing() {
        let term = |line: &str| parse_prelude(line, None).unwrap().terminator();
        assert_eq!(term("STATS"), Some("END"));
        assert_eq!(term("METRICS"), Some("# EOF"));
        assert_eq!(term("CHECK s a ;; b"), None);
        assert_eq!(term("EXPLAIN CHECK s a ;; b"), Some("END"));
        assert_eq!(term("TIMEOUT 9 CERT UEQUIV s a ;; b or c"), Some("END"));
        assert_eq!(term("NEST s R ;; R"), None);
    }
}
