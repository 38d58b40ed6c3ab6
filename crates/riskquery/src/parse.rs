//! The compact textual query form used by the CLI.
//!
//! Three clauses, each parsed independently:
//!
//! * **select** — comma-separated aggregates:
//!   `mean, stddev, maxloss, attach, var(0.99), tvar(0.995), pml(250),
//!   opml(250), aep(20), oep(20)`
//!   (`pml`/`aep` read the year-loss column; `opml`/`oep` the
//!   occurrence-loss column);
//! * **where** — space-separated `dimension=value|value` constraints plus
//!   an optional `trial=start..end` window:
//!   `peril=HU|FL region=Europe lob=PROP layer=0|2 trial=0..10000`
//!   (values match either the enum name or the short code,
//!   case-insensitively), and optional loss-range constraints `loss>=x`,
//!   `loss<=x`, `loss=[min,max]` conditioning each group on the trials
//!   whose summed year loss lies in the (inclusive) range;
//! * **group by** — comma-separated dimensions: `peril, region`.
//!
//! All errors are reported as [`QueryError::Parse`] — malformed input never
//! panics.

use catrisk_eventgen::peril::{Peril, Region};

use crate::dims::{Dimension, LineOfBusiness};
use crate::query::{Aggregate, Basis, Filter, Query, QueryBuilder};
use crate::{QueryError, Result};

fn parse_err(msg: impl Into<String>) -> QueryError {
    QueryError::Parse(msg.into())
}

/// Splits `text` at top-level commas (commas inside parentheses are kept).
fn split_commas(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '(' => {
                depth += 1;
                current.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if depth == 0 => {
                parts.push(current.trim().to_string());
                current.clear();
            }
            c => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_string());
    }
    parts
}

/// Parses `name(arg)` into `(name, Some(arg))`, or `name` into
/// `(name, None)`.
fn split_call(token: &str) -> Result<(String, Option<String>)> {
    match token.find('(') {
        None => Ok((token.trim().to_ascii_lowercase(), None)),
        Some(open) => {
            let name = token[..open].trim().to_ascii_lowercase();
            let rest = token[open + 1..].trim();
            let Some(arg) = rest.strip_suffix(')') else {
                return Err(parse_err(format!("missing `)` in `{token}`")));
            };
            Ok((name, Some(arg.trim().to_string())))
        }
    }
}

fn numeric_arg(name: &str, arg: Option<String>) -> Result<f64> {
    let Some(arg) = arg else {
        return Err(parse_err(format!(
            "`{name}` needs an argument, e.g. `{name}(0.99)`"
        )));
    };
    arg.parse::<f64>()
        .map_err(|_| parse_err(format!("invalid number `{arg}` in `{name}({arg})`")))
}

fn points_arg(name: &str, arg: Option<String>) -> Result<usize> {
    match arg {
        None => Ok(20),
        Some(arg) => arg
            .parse::<usize>()
            .map_err(|_| parse_err(format!("invalid point count `{arg}` in `{name}({arg})`"))),
    }
}

/// Parses a select clause into aggregates.
pub fn parse_select(text: &str) -> Result<Vec<Aggregate>> {
    let parts = split_commas(text);
    if parts.is_empty() {
        return Err(parse_err("empty select clause"));
    }
    parts
        .iter()
        .map(|token| {
            let (name, arg) = split_call(token)?;
            match name.as_str() {
                "mean" => Ok(Aggregate::Mean),
                "stddev" | "std" => Ok(Aggregate::StdDev),
                "maxloss" | "max" => Ok(Aggregate::MaxLoss),
                "attach" | "attachprob" => Ok(Aggregate::AttachProb),
                "var" => Ok(Aggregate::Var {
                    level: numeric_arg("var", arg)?,
                }),
                "tvar" => Ok(Aggregate::Tvar {
                    level: numeric_arg("tvar", arg)?,
                }),
                "pml" => Ok(Aggregate::Pml {
                    return_period: numeric_arg("pml", arg)?,
                    basis: Basis::Aep,
                }),
                "opml" => Ok(Aggregate::Pml {
                    return_period: numeric_arg("opml", arg)?,
                    basis: Basis::Oep,
                }),
                "aep" => Ok(Aggregate::EpCurve {
                    basis: Basis::Aep,
                    points: points_arg("aep", arg)?,
                }),
                "oep" => Ok(Aggregate::EpCurve {
                    basis: Basis::Oep,
                    points: points_arg("oep", arg)?,
                }),
                other => Err(parse_err(format!(
                    "unknown aggregate `{other}` (expected mean, stddev, maxloss, attach, \
                     var(l), tvar(l), pml(rp), opml(rp), aep(n), oep(n))"
                ))),
            }
        })
        .collect()
}

fn match_value<T: Copy>(token: &str, all: &[T], name_of: impl Fn(&T) -> String) -> Option<T> {
    all.iter()
        .find(|v| name_of(v).eq_ignore_ascii_case(token))
        .copied()
}

fn parse_peril(token: &str) -> Result<Peril> {
    match_value(token, &Peril::ALL, |p| format!("{p:?}"))
        .or_else(|| match_value(token, &Peril::ALL, |p| p.code().to_string()))
        .ok_or_else(|| parse_err(format!("unknown peril `{token}`")))
}

fn parse_region(token: &str) -> Result<Region> {
    match_value(token, &Region::ALL, |r| format!("{r:?}"))
        .or_else(|| match_value(token, &Region::ALL, |r| r.code().to_string()))
        .ok_or_else(|| parse_err(format!("unknown region `{token}`")))
}

fn parse_lob(token: &str) -> Result<LineOfBusiness> {
    match_value(token, &LineOfBusiness::ALL, |l| format!("{l:?}"))
        .or_else(|| match_value(token, &LineOfBusiness::ALL, |l| l.code().to_string()))
        .ok_or_else(|| parse_err(format!("unknown line of business `{token}`")))
}

fn parse_values<T>(list: &str, parse_one: impl Fn(&str) -> Result<T>) -> Result<Vec<T>> {
    list.split('|')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(parse_one)
        .collect()
}

fn parse_loss_bound(token: &str, bound: &str) -> Result<f64> {
    bound
        .trim()
        .parse::<f64>()
        .map_err(|_| parse_err(format!("invalid loss bound `{bound}` in `{token}`")))
}

/// Parses one `loss…` constraint (`loss>=x`, `loss<=x`, `loss=[a,b]`) into
/// the filter, merging with any bound set by an earlier loss token.
fn parse_loss(filter: &mut Filter, token: &str) -> Result<()> {
    let mut range = filter.loss.unwrap_or_default();
    if let Some(bound) = token.strip_prefix("loss>=") {
        range.min = parse_loss_bound(token, bound)?;
    } else if let Some(bound) = token.strip_prefix("loss<=") {
        range.max = parse_loss_bound(token, bound)?;
    } else if let Some(body) = token.strip_prefix("loss=") {
        let Some(list) = body.strip_prefix('[').and_then(|b| b.strip_suffix(']')) else {
            return Err(parse_err(format!(
                "loss range must be `loss=[min,max]`, `loss>=x` or `loss<=x`, got `{token}`"
            )));
        };
        let Some((min, max)) = list.split_once(',') else {
            return Err(parse_err(format!(
                "loss range needs two bounds `loss=[min,max]`, got `{token}`"
            )));
        };
        range.min = parse_loss_bound(token, min)?;
        range.max = parse_loss_bound(token, max)?;
    } else {
        return Err(parse_err(format!(
            "loss constraint must be `loss>=x`, `loss<=x` or `loss=[min,max]`, got `{token}`"
        )));
    }
    if range.min.is_nan() || range.max.is_nan() || range.min > range.max {
        return Err(parse_err(format!(
            "empty loss range [{}, {}] from `{token}`",
            range.min, range.max
        )));
    }
    filter.loss = Some(range);
    Ok(())
}

/// Parses a where clause into a [`Filter`].
pub fn parse_where(text: &str) -> Result<Filter> {
    let mut filter = Filter::all();
    for token in text.split_whitespace() {
        if token.starts_with("loss") {
            parse_loss(&mut filter, token)?;
            continue;
        }
        let Some((key, value)) = token.split_once('=') else {
            return Err(parse_err(format!(
                "expected `dimension=value` in where clause, got `{token}`"
            )));
        };
        match key.trim().to_ascii_lowercase().as_str() {
            "peril" => filter.perils = Some(parse_values(value, parse_peril)?),
            "region" => filter.regions = Some(parse_values(value, parse_region)?),
            "lob" => filter.lobs = Some(parse_values(value, parse_lob)?),
            "layer" => {
                filter.layers = Some(parse_values(value, |t| {
                    t.parse::<u32>()
                        .map_err(|_| parse_err(format!("invalid layer id `{t}`")))
                })?)
            }
            "trial" | "trials" => {
                let Some((start, end)) = value.split_once("..") else {
                    return Err(parse_err(format!(
                        "trial window must be `start..end`, got `{value}`"
                    )));
                };
                let start = start
                    .parse::<usize>()
                    .map_err(|_| parse_err(format!("invalid trial start `{start}`")))?;
                let end = end
                    .parse::<usize>()
                    .map_err(|_| parse_err(format!("invalid trial end `{end}`")))?;
                filter.trials = Some((start, end));
            }
            other => {
                return Err(parse_err(format!(
                    "unknown filter dimension `{other}` \
                     (expected peril, region, lob, layer, trial, loss)"
                )))
            }
        }
    }
    Ok(filter)
}

/// Parses the three clause texts into a validated [`Query`] — the one
/// mapping behind the CLI's `--select` / `--where` / `--group-by` and the
/// wire protocol's `select … where … group by …`.  An empty where or
/// group-by text means no constraint and no grouping.
pub fn parse_query(select: &str, where_clause: &str, group_by: &str) -> Result<Query> {
    let aggregates = parse_select(select)?;
    let mut builder = QueryBuilder::new().filter(parse_where(where_clause)?);
    for aggregate in aggregates {
        builder = builder.aggregate(aggregate);
    }
    for dim in parse_group_by(group_by)? {
        builder = builder.group_by(dim);
    }
    builder.build()
}

/// Parses a group-by clause into dimensions.
pub fn parse_group_by(text: &str) -> Result<Vec<Dimension>> {
    split_commas(text)
        .iter()
        .map(|token| {
            Dimension::ALL
                .iter()
                .find(|d| d.name().eq_ignore_ascii_case(token))
                .copied()
                .ok_or_else(|| {
                    parse_err(format!(
                        "unknown group-by dimension `{token}` (expected layer, peril, region, lob)"
                    ))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::LossRange;

    #[test]
    fn select_clause_round_trip() {
        let aggs =
            parse_select("mean, stddev, var(0.99), tvar(0.995), pml(250), opml(100), aep(5), oep")
                .unwrap();
        assert_eq!(aggs.len(), 8);
        assert_eq!(aggs[2], Aggregate::Var { level: 0.99 });
        assert_eq!(
            aggs[4],
            Aggregate::Pml {
                return_period: 250.0,
                basis: Basis::Aep
            }
        );
        assert_eq!(
            aggs[5],
            Aggregate::Pml {
                return_period: 100.0,
                basis: Basis::Oep
            }
        );
        assert_eq!(
            aggs[6],
            Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 5
            }
        );
        assert_eq!(
            aggs[7],
            Aggregate::EpCurve {
                basis: Basis::Oep,
                points: 20
            }
        );
    }

    #[test]
    fn select_errors_are_graceful() {
        assert!(parse_select("").is_err());
        assert!(parse_select("frobnicate").is_err());
        assert!(parse_select("var").is_err());
        assert!(parse_select("var(abc)").is_err());
        assert!(parse_select("var(0.9").is_err());
        assert!(parse_select("aep(x)").is_err());
    }

    #[test]
    fn where_clause_parses_dimensions() {
        let filter =
            parse_where("peril=Hurricane|FL region=europe lob=PROP|Marine layer=0|3 trial=10..500")
                .unwrap();
        assert_eq!(filter.perils, Some(vec![Peril::Hurricane, Peril::Flood]));
        assert_eq!(filter.regions, Some(vec![Region::Europe]));
        assert_eq!(
            filter.lobs,
            Some(vec![LineOfBusiness::Property, LineOfBusiness::Marine])
        );
        assert_eq!(filter.layers, Some(vec![0, 3]));
        assert_eq!(filter.trials, Some((10, 500)));
    }

    #[test]
    fn where_errors_are_graceful() {
        assert!(parse_where("peril").is_err());
        assert!(parse_where("peril=NotAPeril").is_err());
        assert!(parse_where("galaxy=milkyway").is_err());
        assert!(parse_where("trial=5").is_err());
        assert!(parse_where("trial=a..b").is_err());
        assert!(parse_where("layer=x").is_err());
        assert!(parse_where("loss=5").is_err());
        assert!(parse_where("loss>=abc").is_err());
        assert!(parse_where("loss=[1,2,3]").is_err());
        assert!(parse_where("loss=[9,1]").is_err());
        assert!(parse_where("loss>=5 loss<=2").is_err());
        assert!(parse_where("lossy=1").is_err());
    }

    #[test]
    fn where_clause_parses_loss_ranges() {
        let filter = parse_where("loss>=100").unwrap();
        assert_eq!(filter.loss, Some(LossRange::at_least(100.0)));
        let filter = parse_where("loss<=2e6").unwrap();
        assert_eq!(filter.loss, Some(LossRange::at_most(2.0e6)));
        let filter = parse_where("loss=[100,2e6]").unwrap();
        assert_eq!(
            filter.loss,
            Some(LossRange {
                min: 100.0,
                max: 2.0e6
            })
        );
        // Bounds given as separate tokens merge into one range.
        let filter = parse_where("peril=HU loss>=10 loss<=90").unwrap();
        assert_eq!(
            filter.loss,
            Some(LossRange {
                min: 10.0,
                max: 90.0
            })
        );
        assert_eq!(filter.perils, Some(vec![Peril::Hurricane]));
    }

    #[test]
    fn group_by_parses() {
        assert_eq!(
            parse_group_by("peril, region").unwrap(),
            vec![Dimension::Peril, Dimension::Region]
        );
        assert_eq!(parse_group_by("LOB").unwrap(), vec![Dimension::Lob]);
        assert!(parse_group_by("continent").is_err());
    }

    #[test]
    fn query_clauses_build_one_validated_query() {
        let query = parse_query("mean, tvar(0.99)", "peril=HU trial=0..10", "region").unwrap();
        let expected = QueryBuilder::new()
            .with_perils([Peril::Hurricane])
            .trials(0..10)
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .build()
            .unwrap();
        assert_eq!(query, expected);
        // Empty where / group-by texts mean no constraint, no grouping.
        assert_eq!(parse_query("mean", "", "").unwrap().filter, Filter::all());
        // Parse errors and builder validation both surface.
        assert!(matches!(
            parse_query("nope", "", ""),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            parse_query("mean", "trial=9..3", ""),
            Err(QueryError::InvalidQuery(_))
        ));
    }
}
