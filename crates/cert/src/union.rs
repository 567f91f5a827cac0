//! Union (UCQ) containment certificates: `∪Pⱼ ⊑ ∪Qᵢ` evidence built from
//! per-pair [`Cert`] blocks.
//!
//! The Sagiv–Yannakakis shape of the UCQ decision dictates the evidence:
//!
//! * **holds** — for *every* left disjunct `j` there is a witnessing right
//!   disjunct `i` with `Pⱼ ⊑ Qᵢ`, so the certificate carries one
//!   `(j, i, cert)` witness per left disjunct (a `UnionWitness(j, φ)` in
//!   the issue's terms);
//! * **refuted** — some left disjunct `x` is contained in *no* right
//!   disjunct, so the certificate carries a refutation cert for the pair
//!   `(x, i)` for *every* right disjunct `i` (a per-branch
//!   counterexample).
//!
//! The checker re-validates every embedded block with the same naive
//! evaluator as scalar certificates — a kernel bug still cannot vouch for
//! itself — and additionally enforces the *union combinatorics*: witness
//! lines must cover each left disjunct exactly once with in-range right
//! indices, and branch lines must cover each right disjunct exactly once.
//! A witness naming the wrong disjunct index fails because its mapping
//! does not check against that pair's trees; a branch counterexample that
//! actually satisfies the union fails the embedded "database does not
//! refute" check.
//!
//! # Wire format
//!
//! ```text
//! COUNION1 verdict=holds left=<n> right=<m>
//! W <j> <i>
//! COCERT1 … COCERTEND      (embedded scalar block for the pair (j, i))
//! …one W group per left disjunct, in order…
//! COUNIONEND
//! ```
//!
//! ```text
//! COUNION1 verdict=refuted left=<n> right=<m>
//! X <j>                    (the uncovered left disjunct)
//! B <i>
//! COCERT1 … COCERTEND      (refutation block for the pair (j, i))
//! …one B group per right disjunct, in order…
//! COUNIONEND
//! ```

use co_sim::QueryTree;

use crate::{check_err, parse_err, take_line, Cert, CertError, CertPath};

/// First line of every wire union certificate.
pub const UNION_WIRE_MAGIC: &str = "COUNION1";
/// Last line of every wire union certificate.
pub const UNION_WIRE_END: &str = "COUNIONEND";

/// A complete union containment certificate for `∪Pⱼ ⊑ ∪Qᵢ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnionCert {
    /// Claimed verdict: `true` = the union containment holds.
    pub holds: bool,
    /// Number of left disjuncts the certificate speaks about.
    pub left: usize,
    /// Number of right disjuncts the certificate speaks about.
    pub right: usize,
    /// Positive evidence: for each left disjunct `j` (in order), the
    /// witnessing right index and the scalar certificate for that pair.
    pub witnesses: Vec<(u32, Cert)>,
    /// Negative evidence: the left disjunct contained in no right
    /// disjunct.
    pub refuted: Option<u32>,
    /// Negative evidence: for each right disjunct `i` (in order), the
    /// scalar refutation certificate for the pair `(refuted, i)`.
    pub branches: Vec<(u32, Cert)>,
}

impl UnionCert {
    /// Serializes to the line-oriented wire block (trailing newline
    /// included). Embedded scalar blocks keep their own framing.
    pub fn to_wire(&self) -> String {
        let verdict = if self.holds { "holds" } else { "refuted" };
        let mut out = format!(
            "{UNION_WIRE_MAGIC} verdict={verdict} left={} right={}\n",
            self.left, self.right
        );
        if self.holds {
            for (j, (i, cert)) in self.witnesses.iter().enumerate() {
                out.push_str(&format!("W {j} {i}\n"));
                out.push_str(&cert.to_wire());
            }
        } else {
            if let Some(x) = self.refuted {
                out.push_str(&format!("X {x}\n"));
            }
            for (i, cert) in &self.branches {
                out.push_str(&format!("B {i}\n"));
                out.push_str(&cert.to_wire());
            }
        }
        out.push_str(UNION_WIRE_END);
        out.push('\n');
        out
    }

    /// Parses one wire block; the whole input must be consumed (modulo
    /// trailing whitespace).
    pub fn parse(text: &str) -> Result<UnionCert, CertError> {
        let (cert, rest) = UnionCert::parse_prefix(text)?;
        if !rest.trim().is_empty() {
            return parse_err("trailing data after union certificate");
        }
        Ok(cert)
    }

    /// Parses one wire block from the front of `text`, returning the
    /// certificate and the unconsumed remainder (used for `UEQUIV`
    /// replies, which concatenate two blocks).
    pub fn parse_prefix(text: &str) -> Result<(UnionCert, &str), CertError> {
        let mut rest = text;
        let header =
            take_line(&mut rest).ok_or(CertError::Parse("empty union certificate".into()))?;
        let mut fields = header.split_ascii_whitespace();
        if fields.next() != Some(UNION_WIRE_MAGIC) {
            return parse_err(format!("missing {UNION_WIRE_MAGIC} header"));
        }
        let holds = match fields.next() {
            Some("verdict=holds") => true,
            Some("verdict=refuted") => false,
            other => return parse_err(format!("bad verdict field `{}`", other.unwrap_or(""))),
        };
        let count = |tok: Option<&str>, name: &str| -> Result<usize, CertError> {
            tok.and_then(|f| f.strip_prefix(name))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| CertError::Parse(format!("bad `{name}…` field")))
        };
        let left = count(fields.next(), "left=")?;
        let right = count(fields.next(), "right=")?;
        if fields.next().is_some() {
            return parse_err("trailing header fields");
        }

        let mut witnesses: Vec<(u32, Cert)> = Vec::new();
        let mut refuted: Option<u32> = None;
        let mut branches: Vec<(u32, Cert)> = Vec::new();
        let mut terminated = false;
        while let Some(line) = take_line(&mut rest) {
            let line = line.trim_end();
            if line == UNION_WIRE_END {
                terminated = true;
                break;
            }
            let mut toks = line.split_ascii_whitespace();
            let index = |tok: Option<&str>, tag: &str| -> Result<u32, CertError> {
                tok.and_then(|t| t.parse::<u32>().ok())
                    .ok_or_else(|| CertError::Parse(format!("bad index on {tag} line")))
            };
            match toks.next() {
                Some("W") => {
                    let j = index(toks.next(), "W")?;
                    let i = index(toks.next(), "W")?;
                    if toks.next().is_some() {
                        return parse_err("trailing tokens on W line");
                    }
                    if j as usize != witnesses.len() {
                        return parse_err(format!(
                            "witness lines out of order: expected W {}, got W {j}",
                            witnesses.len()
                        ));
                    }
                    let (cert, after) = Cert::parse_prefix(rest)?;
                    rest = after;
                    witnesses.push((i, cert));
                }
                Some("X") => {
                    if refuted.is_some() {
                        return parse_err("duplicate X line");
                    }
                    let x = index(toks.next(), "X")?;
                    if toks.next().is_some() {
                        return parse_err("trailing tokens on X line");
                    }
                    refuted = Some(x);
                }
                Some("B") => {
                    let i = index(toks.next(), "B")?;
                    if toks.next().is_some() {
                        return parse_err("trailing tokens on B line");
                    }
                    if i as usize != branches.len() {
                        return parse_err(format!(
                            "branch lines out of order: expected B {}, got B {i}",
                            branches.len()
                        ));
                    }
                    let (cert, after) = Cert::parse_prefix(rest)?;
                    rest = after;
                    branches.push((i, cert));
                }
                Some(other) => return parse_err(format!("unknown union line tag `{other}`")),
                None => {} // blank line
            }
        }
        if !terminated {
            return parse_err(format!("truncated union certificate (missing {UNION_WIRE_END})"));
        }
        if holds {
            if refuted.is_some() || !branches.is_empty() {
                return parse_err("X/B lines in a positive union certificate");
            }
        } else if !witnesses.is_empty() {
            return parse_err("W lines in a refuted union certificate");
        }
        Ok((UnionCert { holds, left, right, witnesses, refuted, branches }, rest))
    }

    /// Validates this certificate against the disjunct trees of both
    /// unions. `expect_holds` is the verdict claimed *outside* the
    /// certificate; `expect_path(j, i)` is the decision path the caller
    /// derives for the pair of disjuncts `(left[j], right[i])` — supplied
    /// as a function so this crate stays independent of the path-derivation
    /// logic in `co-core`.
    pub fn check_against(
        &self,
        left: &[&QueryTree],
        right: &[&QueryTree],
        expect_holds: bool,
        expect_path: &dyn Fn(usize, usize) -> CertPath,
    ) -> Result<(), CertError> {
        if self.holds != expect_holds {
            return check_err(format!(
                "union certificate claims verdict `{}` but the carried verdict is `{}`",
                if self.holds { "holds" } else { "refuted" },
                if expect_holds { "holds" } else { "refuted" },
            ));
        }
        if self.left != left.len() || self.right != right.len() {
            return check_err(format!(
                "union certificate speaks about {}×{} disjuncts but the queries have {}×{}",
                self.left,
                self.right,
                left.len(),
                right.len()
            ));
        }
        if left.is_empty() || right.is_empty() {
            return check_err("empty union");
        }
        if self.holds {
            if self.witnesses.len() != left.len() {
                return check_err(format!(
                    "positive union certificate covers {} of {} left disjuncts",
                    self.witnesses.len(),
                    left.len()
                ));
            }
            for (j, (i, cert)) in self.witnesses.iter().enumerate() {
                let i = *i as usize;
                if i >= right.len() {
                    return check_err(format!(
                        "witness for left disjunct {j} names right disjunct {i}, out of range"
                    ));
                }
                if !cert.holds {
                    return check_err(format!(
                        "witness for left disjunct {j} embeds a refuted certificate"
                    ));
                }
                cert.check_against(left[j], right[i], true, expect_path(j, i))
                    .map_err(|e| CertError::Check(format!("witness ({j} ⊑ {i}) rejected: {e}")))?;
            }
            Ok(())
        } else {
            let Some(x) = self.refuted else {
                return check_err("refuted union certificate names no refuted disjunct");
            };
            let x = x as usize;
            if x >= left.len() {
                return check_err(format!(
                    "refuted left disjunct {x} is out of range (union has {})",
                    left.len()
                ));
            }
            if self.branches.len() != right.len() {
                return check_err(format!(
                    "refuted union certificate covers {} of {} right disjuncts",
                    self.branches.len(),
                    right.len()
                ));
            }
            for (i, cert) in &self.branches {
                let i = *i as usize;
                if cert.holds {
                    return check_err(format!(
                        "branch {i} embeds a positive certificate in a refuted union"
                    ));
                }
                cert.check_against(left[x], right[i], false, expect_path(x, i))
                    .map_err(|e| CertError::Check(format!("branch ({x} ⋢ {i}) rejected: {e}")))?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{flat_tree, nested_tree};
    use crate::Certificate;
    use co_cq::{Term, Var};
    use std::collections::HashMap;

    fn identity_mapping(n: usize) -> Cert {
        let mut map = HashMap::new();
        for k in 0..n {
            let v = Var::new(&format!("p{k}"));
            map.insert(v, Term::Var(v));
        }
        Cert { holds: true, path: CertPath::Flat, kind: Certificate::Mapping(map) }
    }

    #[test]
    fn wire_roundtrip_positive_and_negative() {
        let pos = UnionCert {
            holds: true,
            left: 2,
            right: 2,
            witnesses: vec![(1, identity_mapping(2)), (0, identity_mapping(2))],
            refuted: None,
            branches: Vec::new(),
        };
        let back = UnionCert::parse(&pos.to_wire()).unwrap();
        assert_eq!(pos, back);

        let db = co_cq::Database::new();
        let refutation = Cert {
            holds: false,
            path: CertPath::Flat,
            kind: Certificate::Counterexample { db, pattern: None },
        };
        let neg = UnionCert {
            holds: false,
            left: 2,
            right: 2,
            witnesses: Vec::new(),
            refuted: Some(1),
            branches: vec![(0, refutation.clone()), (1, refutation)],
        };
        let back = UnionCert::parse(&neg.to_wire()).unwrap();
        assert_eq!(neg, back);
    }

    #[test]
    fn malformed_wire_is_rejected() {
        assert!(UnionCert::parse("").is_err());
        assert!(UnionCert::parse("COUNION1 verdict=holds left=1 right=1\n").is_err());
        assert!(UnionCert::parse("COUNION1 verdict=maybe left=1 right=1\nCOUNIONEND\n").is_err());
        // Out-of-order witness lines.
        let cert = identity_mapping(1).to_wire();
        let scrambled = format!(
            "COUNION1 verdict=holds left=2 right=2\nW 1 0\n{cert}W 0 0\n{cert}COUNIONEND\n"
        );
        assert!(UnionCert::parse(&scrambled).is_err());
        // W lines in a refuted certificate.
        let bad = format!("COUNION1 verdict=refuted left=1 right=1\nW 0 0\n{cert}COUNIONEND\n");
        assert!(UnionCert::parse(&bad).is_err());
    }

    #[test]
    fn check_enforces_union_combinatorics() {
        // q(x, y) :- R(x, y) — identical on both sides, so the identity
        // mapping certifies each pair.
        let t = flat_tree("q(x, y) :- R(x, y).");
        let left = [&t, &t];
        let right = [&t];
        let path = |_: usize, _: usize| CertPath::Flat;

        let good = UnionCert {
            holds: true,
            left: 2,
            right: 1,
            witnesses: vec![(0, identity_mapping(2)), (0, identity_mapping(2))],
            refuted: None,
            branches: Vec::new(),
        };
        good.check_against(&left, &right, true, &path).unwrap();

        // Out-of-range witness index.
        let mut bad = good.clone();
        bad.witnesses[1].0 = 7;
        let e = bad.check_against(&left, &right, true, &path).unwrap_err();
        assert!(matches!(e, CertError::Check(_)), "{e}");

        // Not every left disjunct covered.
        let mut short = good.clone();
        short.witnesses.pop();
        assert!(short.check_against(&left, &right, true, &path).is_err());

        // Wrong disjunct counts.
        assert!(good.check_against(&left, &[&t, &t], true, &path).is_err());
        // Verdict disagreement with the carried verdict.
        assert!(good.check_against(&left, &right, false, &path).is_err());
    }

    #[test]
    fn nested_pairs_check_through_embedded_canonical_blocks() {
        let t = nested_tree("q(X, Y) :- R(X, Y).", 1);
        let canonical = Cert { holds: true, path: CertPath::Full, kind: Certificate::Canonical };
        let cert = UnionCert {
            holds: true,
            left: 1,
            right: 1,
            witnesses: vec![(0, canonical)],
            refuted: None,
            branches: Vec::new(),
        };
        cert.check_against(&[&t], &[&t], true, &|_, _| CertPath::Full).unwrap();
        // The same certificate on the flat expected path must fail (path
        // claim mismatch inside the embedded block).
        assert!(cert.check_against(&[&t], &[&t], true, &|_, _| CertPath::Flat).is_err());
    }
}
