//! WAL serialization: a stable, line-oriented text encoding so the
//! source-of-truth database can be persisted and rebuilt by replay
//! (ARIES-style recovery, simplified to redo-only records).
//!
//! Format: one record per line, tab-separated fields, first field is the
//! record tag. Strings escape `\\`, tab, and newline; attribute values
//! carry a type prefix (`s:`/`i:`/`b:`).

use crate::value::AttrValue;
use crate::wal::WalRecord;

/// An error decoding a serialized WAL.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalDecodeError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl std::fmt::Display for WalDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WAL decode error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for WalDecodeError {}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn unesc(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                other => return Err(format!("bad escape {other:?}")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn enc_value(v: &AttrValue) -> String {
    match v {
        AttrValue::Str(s) => format!("s:{}", esc(s)),
        AttrValue::Int(i) => format!("i:{i}"),
        AttrValue::Bool(b) => format!("b:{b}"),
    }
}

fn dec_value(s: &str) -> Result<AttrValue, String> {
    match s.split_once(':') {
        Some(("s", rest)) => Ok(AttrValue::Str(unesc(rest)?)),
        Some(("i", rest)) => rest
            .parse::<i64>()
            .map(AttrValue::Int)
            .map_err(|e| e.to_string()),
        Some(("b", rest)) => rest
            .parse::<bool>()
            .map(AttrValue::Bool)
            .map_err(|e| e.to_string()),
        _ => Err(format!("bad value {s:?}")),
    }
}

fn enc_attrs(attrs: &[(String, AttrValue)]) -> String {
    attrs
        .iter()
        .map(|(k, v)| format!("{}={}", esc(k), enc_value(v)))
        .collect::<Vec<_>>()
        .join("\t")
}

fn dec_attrs(fields: &[&str]) -> Result<Vec<(String, AttrValue)>, String> {
    fields
        .iter()
        .map(|f| {
            let (k, v) = f.split_once('=').ok_or_else(|| format!("bad attr {f:?}"))?;
            Ok((unesc(k)?, dec_value(v)?))
        })
        .collect()
}

/// Serializes a record sequence to the text format.
pub fn encode(records: &[WalRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let line = match r {
            WalRecord::InsertDevice { name, attrs } => {
                let mut l = format!("INS_DEV\t{}", esc(name));
                if !attrs.is_empty() {
                    l.push('\t');
                    l.push_str(&enc_attrs(attrs));
                }
                l
            }
            WalRecord::DeleteDevice { name } => format!("DEL_DEV\t{}", esc(name)),
            WalRecord::SetDeviceAttr { name, attr, value } => {
                format!(
                    "SET_DEV\t{}\t{}\t{}",
                    esc(name),
                    esc(attr),
                    enc_value(value)
                )
            }
            WalRecord::UnsetDeviceAttr { name, attr } => {
                format!("UNSET_DEV\t{}\t{}", esc(name), esc(attr))
            }
            WalRecord::InsertLink {
                a_end,
                z_end,
                attrs,
            } => {
                let mut l = format!("INS_LINK\t{}\t{}", esc(a_end), esc(z_end));
                if !attrs.is_empty() {
                    l.push('\t');
                    l.push_str(&enc_attrs(attrs));
                }
                l
            }
            WalRecord::DeleteLink { a_end, z_end } => {
                format!("DEL_LINK\t{}\t{}", esc(a_end), esc(z_end))
            }
            WalRecord::SetLinkAttr {
                a_end,
                z_end,
                attr,
                value,
            } => format!(
                "SET_LINK\t{}\t{}\t{}\t{}",
                esc(a_end),
                esc(z_end),
                esc(attr),
                enc_value(value)
            ),
            WalRecord::UnsetLinkAttr { a_end, z_end, attr } => {
                format!("UNSET_LINK\t{}\t{}\t{}", esc(a_end), esc(z_end), esc(attr))
            }
            WalRecord::Commit { seq } => format!("COMMIT\t{seq}"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parses the text format back into records.
pub fn decode(text: &str) -> Result<Vec<WalRecord>, WalDecodeError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let err = |msg: String| WalDecodeError { line: i + 1, msg };
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let rec = match fields[0] {
            "INS_DEV" if fields.len() >= 2 => WalRecord::InsertDevice {
                name: unesc(fields[1]).map_err(&err)?,
                attrs: dec_attrs(&fields[2..]).map_err(&err)?,
            },
            "DEL_DEV" if fields.len() == 2 => WalRecord::DeleteDevice {
                name: unesc(fields[1]).map_err(&err)?,
            },
            "SET_DEV" if fields.len() == 4 => WalRecord::SetDeviceAttr {
                name: unesc(fields[1]).map_err(&err)?,
                attr: unesc(fields[2]).map_err(&err)?,
                value: dec_value(fields[3]).map_err(&err)?,
            },
            "UNSET_DEV" if fields.len() == 3 => WalRecord::UnsetDeviceAttr {
                name: unesc(fields[1]).map_err(&err)?,
                attr: unesc(fields[2]).map_err(&err)?,
            },
            "INS_LINK" if fields.len() >= 3 => WalRecord::InsertLink {
                a_end: unesc(fields[1]).map_err(&err)?,
                z_end: unesc(fields[2]).map_err(&err)?,
                attrs: dec_attrs(&fields[3..]).map_err(&err)?,
            },
            "DEL_LINK" if fields.len() == 3 => WalRecord::DeleteLink {
                a_end: unesc(fields[1]).map_err(&err)?,
                z_end: unesc(fields[2]).map_err(&err)?,
            },
            "SET_LINK" if fields.len() == 5 => WalRecord::SetLinkAttr {
                a_end: unesc(fields[1]).map_err(&err)?,
                z_end: unesc(fields[2]).map_err(&err)?,
                attr: unesc(fields[3]).map_err(&err)?,
                value: dec_value(fields[4]).map_err(&err)?,
            },
            "UNSET_LINK" if fields.len() == 4 => WalRecord::UnsetLinkAttr {
                a_end: unesc(fields[1]).map_err(&err)?,
                z_end: unesc(fields[2]).map_err(&err)?,
                attr: unesc(fields[3]).map_err(&err)?,
            },
            "COMMIT" if fields.len() == 2 => WalRecord::Commit {
                seq: fields[1].parse::<u64>().map_err(|e| err(e.to_string()))?,
            },
            tag => return Err(err(format!("unknown or malformed record {tag:?}"))),
        };
        out.push(rec);
    }
    Ok(out)
}

impl crate::db::Database {
    /// Serializes [`Database::wal_records`](crate::db::Database::wal_records)
    /// to the persistent text format: the WAL itself when it holds every
    /// commit from 0, otherwise a checkpoint of the current state.
    pub fn dump_wal(&self) -> String {
        encode(&self.wal_records())
    }

    /// Rebuilds a database from a serialized WAL or checkpoint: the
    /// recovered store is the replay of all records, its commit count is
    /// the one the dump carries, and new commits continue from there.
    pub fn recover(text: &str) -> Result<crate::db::Database, WalDecodeError> {
        let records = decode(text)?;
        let db = crate::db::Database::new();
        db.install_recovered(&records);
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use occam_regex::Pattern;

    fn exercised_db() -> Database {
        let db = Database::new();
        db.insert_device("dc01.pod00.sw00", vec![("A".into(), AttrValue::Int(1))])
            .unwrap();
        db.insert_device("dc01.pod00.sw01", vec![]).unwrap();
        db.insert_link(
            "dc01.pod00.sw00",
            "dc01.pod00.sw01",
            vec![("LINK_STATUS".into(), "UP".into())],
        )
        .unwrap();
        db.set_attr(
            &Pattern::from_glob("dc01.*").unwrap(),
            "NOTE",
            AttrValue::str("weird\tchars\nhere\\ok"),
        )
        .unwrap();
        db.set_link_attr("dc01.pod00.sw00", "dc01.pod00.sw01", "SPEED", 100i64.into())
            .unwrap();
        db.delete_device("dc01.pod00.sw01").unwrap();
        db
    }

    #[test]
    fn encode_decode_round_trip() {
        let db = exercised_db();
        let records = db.wal_records();
        let text = encode(&records);
        let back = decode(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn recover_rebuilds_identical_state() {
        let db = exercised_db();
        let text = db.dump_wal();
        let recovered = Database::recover(&text).unwrap();
        assert_eq!(recovered.snapshot(), db.snapshot());
        assert_eq!(recovered.commits(), db.commits());
        // The recovered database keeps working and logging.
        recovered.insert_device("dc02.pod00.sw00", vec![]).unwrap();
        assert!(recovered.device_exists("dc02.pod00.sw00").unwrap());
    }

    #[test]
    fn decode_rejects_garbage() {
        for bad in [
            "BOGUS\tx",
            "SET_DEV\tonly\ttwo",
            "COMMIT\tnot_a_number",
            "SET_DEV\td\ta\tq:12",
            "INS_DEV\tname\tnoequals",
        ] {
            let e = decode(bad).unwrap_err();
            assert_eq!(e.line, 1, "{bad}");
        }
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let hostile = "tab\there\\and\nnewline";
        let rec = vec![WalRecord::SetDeviceAttr {
            name: hostile.to_string(),
            attr: "x=y".to_string(),
            value: AttrValue::str(hostile),
        }];
        let back = decode(&encode(&rec)).unwrap();
        assert_eq!(back, rec);
    }
}
