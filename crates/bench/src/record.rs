//! The one BENCH record format (`softsim-bench/1`).
//!
//! Every committed `BENCH_00xx.json` is built as a [`Record`]: a fixed
//! header (`schema`, `bench_id`, `description`), the record's own
//! fields in the order they are added, and a closing `series` array in
//! which the record declares its headline numbers and how each one is
//! gated. The perf trajectory ([`crate::trajectory`]) reads nothing but
//! that array, so adding a gated series means editing only the record
//! that computes the number.
//!
//! Rendering needs no `serde`: finite `f64`s use Rust's shortest
//! round-trip `Display`, so parsing a rendered number gives back the
//! same bits — a series value survives record → trajectory exactly.

use softsim_serve::protocol::escape_json;
use softsim_trace::json::Value;
use std::fmt::Write as _;

/// The schema tag every record carries.
pub const SCHEMA: &str = "softsim-bench/1";

/// How a series is gated against the committed trajectory record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Regression floor: `fresh >= factor * committed`.
    Floor(f64),
    /// Regression ceiling: `fresh <= factor * committed`.
    Ceiling(f64),
    /// Recorded but not gated (machine-dependent ratios whose absolute
    /// floors live in their own CI jobs).
    Info,
}

impl Gate {
    /// The `gate` string of a series entry.
    pub fn kind(&self) -> &'static str {
        match self {
            Gate::Floor(_) => "floor",
            Gate::Ceiling(_) => "ceiling",
            Gate::Info => "info",
        }
    }

    /// The `factor` of a series entry (`0` for [`Gate::Info`]).
    pub fn factor(&self) -> f64 {
        match self {
            Gate::Floor(f) | Gate::Ceiling(f) => *f,
            Gate::Info => 0.0,
        }
    }
}

/// One headline number a record declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Stable series name (the trajectory gate keys on it).
    pub name: String,
    /// The value.
    pub value: f64,
    /// How the series is gated.
    pub gate: Gate,
}

impl Series {
    /// Parses one `series` entry — of a BENCH record or of the committed
    /// trajectory, which adds a `source` member this ignores. A missing
    /// member, a wrong type or an unknown `gate` kind is an error naming
    /// the series: a typo must not quietly turn a gate off.
    pub fn parse(entry: &Value) -> Result<Series, String> {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or("series entry without a string `name`")?;
        let member =
            |key: &str| entry.get(key).ok_or_else(|| format!("series `{name}`: missing `{key}`"));
        let number = |key: &str| {
            member(key)?.as_f64().ok_or_else(|| format!("series `{name}`: `{key}` is not a number"))
        };
        let value = number("value")?;
        let factor = number("factor")?;
        let kind = member("gate")?
            .as_str()
            .ok_or_else(|| format!("series `{name}`: `gate` is not a string"))?;
        let gate = match kind {
            "floor" => Gate::Floor(factor),
            "ceiling" => Gate::Ceiling(factor),
            "info" => Gate::Info,
            other => return Err(format!("series `{name}`: unknown gate `{other}`")),
        };
        Ok(Series { name: name.to_string(), value, gate })
    }
}

/// A value a record field can hold.
pub trait Json {
    /// Appends the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// The JSON text of `self`.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

macro_rules! json_via_display {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_via_display!(u32, u64, usize, i64, bool);

/// Finite values render via `Display` (shortest round-trip, never
/// exponent notation); non-finite values are clamped to `0` so the
/// output stays RFC 8259 valid.
impl Json for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push('0');
        }
    }
}

impl Json for str {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", escape_json(self));
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Json> Json for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A JSON object whose members keep the order they were added in.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    members: String,
}

impl Obj {
    /// Appends the member `key: value`.
    pub fn field(mut self, key: &str, value: impl Json) -> Obj {
        if !self.members.is_empty() {
            self.members.push(',');
        }
        key.write_json(&mut self.members);
        self.members.push(':');
        value.write_json(&mut self.members);
        self
    }
}

impl Json for Obj {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{{}}}", self.members);
    }
}

/// An [`Obj`] literal: `obj! { "key" => value, … }` holds the members
/// in the order written.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::record::Obj::default()$(.field($key, $value))*
    };
}
pub(crate) use obj;

impl Json for Series {
    fn write_json(&self, out: &mut String) {
        let obj = obj! {
            "name" => &self.name, "value" => self.value,
            "gate" => self.gate.kind(), "factor" => self.gate.factor(),
        };
        obj.write_json(out);
    }
}

/// One BENCH record: header, fields, and the series it declares.
#[derive(Debug, Clone)]
pub struct Record {
    fields: Obj,
    series: Vec<Series>,
}

impl Record {
    /// The record `bench_id` with the fixed header followed by `fields`.
    pub fn new(bench_id: &str, description: &str, fields: Obj) -> Record {
        let mut header =
            obj! { "schema" => SCHEMA, "bench_id" => bench_id, "description" => description };
        if !fields.members.is_empty() {
            header.members = format!("{},{}", header.members, fields.members);
        }
        Record { fields: header, series: Vec::new() }
    }

    /// Declares a headline series, in trajectory order.
    pub fn series(mut self, name: &str, value: f64, gate: Gate) -> Record {
        self.series.push(Series { name: name.to_string(), value, gate });
        self
    }

    /// The record as one line of JSON: `{…fields…,"series":[…]}\n`.
    pub fn render(&self) -> String {
        self.fields.clone().field("series", &self.series).to_json() + "\n"
    }

    /// Writes [`Record::render`] to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// The rendered record, parsed back (for tests that check values).
    #[cfg(test)]
    pub(crate) fn doc(&self) -> Value {
        softsim_trace::json::parse(&self.render()).expect("a Record renders valid JSON")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Asserts `record` keeps the shape of the committed `file` (at
    /// the repository root): every key path of the committed record is
    /// still present — a record may gain keys, never lose one — and the
    /// declared series have the committed names, gates and factors.
    pub(crate) fn assert_covers_committed(record: &Record, file: &str) {
        use std::collections::BTreeSet;
        fn paths(v: &Value, prefix: &str, out: &mut BTreeSet<String>) {
            match v {
                Value::Object(members) => {
                    for (key, v) in members {
                        let path = format!("{prefix}/{key}");
                        paths(v, &path, out);
                        out.insert(path);
                    }
                }
                Value::Array(items) => {
                    items.iter().for_each(|v| paths(v, &format!("{prefix}[]"), out))
                }
                _ => {}
            }
        }
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join(file)).expect("committed record");
        let committed = softsim_trace::json::parse(&text).expect("committed record parses");
        let fresh = record.doc();
        let (mut want, mut have) = (BTreeSet::new(), BTreeSet::new());
        paths(&committed, "", &mut want);
        paths(&fresh, "", &mut have);
        let missing: Vec<_> = want.difference(&have).collect();
        assert!(missing.is_empty(), "{file}: fresh record lost keys {missing:?}");
        let gates = |doc: &Value| -> Vec<(String, Gate)> {
            let entries = doc.get("series").and_then(Value::as_array).expect("series array");
            entries
                .iter()
                .map(|e| Series::parse(e).map(|s| (s.name, s.gate)).expect("series entry"))
                .collect()
        };
        assert_eq!(gates(&fresh), gates(&committed), "{file}: series names, gates or factors");
    }

    #[test]
    fn every_value_kind_round_trips_through_the_parser() {
        let fields = obj! {
            "unsigned" => u64::from(u32::MAX) + 1,
            "count" => 3usize,
            "small" => 7u32,
            "signed" => -42i64,
            "real" => 0.1 + 0.2,
            "nan" => f64::NAN,
            "infinite" => f64::NEG_INFINITY,
            "text" => String::from("a\tb"),
            "yes" => true,
            "nested" => obj! { "inner" => obj! { "x" => 1u32 } },
            "objects" => vec![obj! { "i" => 0u32 }, obj! {}],
            "numbers" => [1.5, 2.0].as_slice(),
            "empty" => Vec::<u32>::new(),
        };
        let record = Record::new("BENCH_TEST", "kinds \"quoted\" \\ and\nnewline", fields)
            .series("floored", 2.5, Gate::Floor(0.8))
            .series("capped", 1e-7, Gate::Ceiling(1.25))
            .series("context", f64::INFINITY, Gate::Info);
        let text = record.render();
        assert!(text.ends_with("]}\n"), "{text}");
        let doc = record.doc();
        let num = |key: &str| doc.get(key).and_then(Value::as_f64).expect(key);
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(doc.get("bench_id").and_then(Value::as_str), Some("BENCH_TEST"));
        assert_eq!(
            doc.get("description").and_then(Value::as_str),
            Some("kinds \"quoted\" \\ and\nnewline")
        );
        assert_eq!(num("unsigned"), 4294967296.0);
        assert_eq!(num("count"), 3.0);
        assert_eq!(num("small"), 7.0);
        assert_eq!(num("signed"), -42.0);
        assert_eq!(num("real").to_bits(), (0.1f64 + 0.2).to_bits(), "bit-exact");
        assert_eq!(num("nan"), 0.0, "non-finite clamps to 0");
        assert_eq!(num("infinite"), 0.0);
        assert_eq!(doc.get("text").and_then(Value::as_str), Some("a\tb"));
        assert_eq!(doc.get("yes"), Some(&Value::Bool(true)));
        let inner = doc.get("nested").and_then(|n| n.get("inner")).expect("nested object");
        assert_eq!(inner.get("x").and_then(Value::as_f64), Some(1.0));
        let objects = doc.get("objects").and_then(Value::as_array).expect("array");
        assert_eq!(objects.len(), 2);
        assert_eq!(objects[1], Value::Object(Default::default()));
        assert_eq!(
            doc.get("numbers"),
            Some(&Value::Array(vec![Value::Number(1.5), Value::Number(2.0)]))
        );
        assert_eq!(doc.get("empty"), Some(&Value::Array(Vec::new())));

        let series: Vec<Series> = doc
            .get("series")
            .and_then(Value::as_array)
            .expect("series array")
            .iter()
            .map(|e| Series::parse(e).expect("well-formed entry"))
            .collect();
        assert_eq!(
            series,
            vec![
                Series { name: "floored".into(), value: 2.5, gate: Gate::Floor(0.8) },
                Series { name: "capped".into(), value: 1e-7, gate: Gate::Ceiling(1.25) },
                Series { name: "context".into(), value: 0.0, gate: Gate::Info },
            ]
        );
    }
}
