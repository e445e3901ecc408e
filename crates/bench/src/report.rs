//! The schema-3 perf report (`results/BENCH_<study>.json`) every
//! erosion-driven study emits and every CI gate reads.
//!
//! The row columns ([`PerfRow`]) and the summary keys ([`Summary`]) are each
//! listed **once**, in the two `record!` tables below; the JSON writer, the
//! JSON reader and the weak-scaling CSV are derived from those tables, so
//! adding a column is one line here plus the line of [`perf_row`] that
//! computes it.
//!
//! The reader parses the documents this module writes — objects, arrays,
//! strings with the escapes the writer emits, numbers keeping the
//! integer/float distinction, `true`/`false`/`null`; anything else is an
//! error naming a byte offset. It is not a general JSON library.
//!
//! Schema 3 = schema 2 plus `gossip_wire`, `db_entries_total` and the
//! nullable `peak_rss_bytes`; `sim_wall_s` is nullable too (batch studies
//! have no per-row wall, see [`PerfRow::sim_wall_s`]).

use std::fmt::Write as _;
use std::path::Path;
use ulba_core::gossip::GossipWire;

/// A scalar of the report format.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    /// `null` (also what an absent key reads as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token that is a `u64`.
    Int(u64),
    /// Any other number token; non-finite values are written `null`.
    Float(f64),
    /// A string.
    Str(String),
}

impl Scalar {
    fn json(&self) -> String {
        match self {
            Scalar::Bool(b) => b.to_string(),
            Scalar::Int(i) => i.to_string(),
            Scalar::Float(x) if x.is_finite() => x.to_string(),
            Scalar::Null | Scalar::Float(_) => "null".to_string(),
            Scalar::Str(s) => format!("\"{}\"", json_escape(s)),
        }
    }

    /// CSV cell: strings raw, `null` empty.
    fn csv(&self) -> String {
        match self {
            Scalar::Str(s) => s.clone(),
            Scalar::Null => String::new(),
            other => other.json(),
        }
    }
}

/// The two-character escapes, `(letter after the backslash, character)`;
/// other control characters are written `\u00XX`.
const ESCAPES: [(u8, char); 5] =
    [(b'"', '"'), (b'\\', '\\'), (b'n', '\n'), (b'r', '\r'), (b't', '\t')];

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match ESCAPES.iter().find(|(_, plain)| *plain == c) {
            Some((letter, _)) => out.extend(['\\', *letter as char]),
            None if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("infallible"),
            None => out.push(c),
        }
    }
    out
}

/// A column type: how it maps to and from a [`Scalar`]. `from_scalar(Null)`
/// is what an absent key reads as, so only `Option` columns may be missing.
trait Field: Sized {
    /// The scalar written for this value.
    fn to_scalar(&self) -> Scalar;
    /// The value read from `s`; `None` if `s` has the wrong type.
    fn from_scalar(s: Scalar) -> Option<Self>;
}

/// A column type that is one [`Scalar`] variant.
macro_rules! scalar_field {
    ($ty:ty, $variant:ident) => {
        impl Field for $ty {
            fn to_scalar(&self) -> Scalar {
                Scalar::$variant(self.clone())
            }
            fn from_scalar(s: Scalar) -> Option<Self> {
                match s {
                    Scalar::$variant(value) => Some(value),
                    _ => None,
                }
            }
        }
    };
}
scalar_field!(String, Str);
scalar_field!(bool, Bool);
scalar_field!(u64, Int);

impl Field for usize {
    fn to_scalar(&self) -> Scalar {
        Scalar::Int(*self as u64)
    }
    fn from_scalar(s: Scalar) -> Option<Self> {
        u64::from_scalar(s).and_then(|i| usize::try_from(i).ok())
    }
}

impl Field for f64 {
    fn to_scalar(&self) -> Scalar {
        Scalar::Float(*self)
    }
    /// `4.0` is written `4`, so an integer token is a float here.
    fn from_scalar(s: Scalar) -> Option<Self> {
        match s {
            Scalar::Float(x) => Some(x),
            Scalar::Int(i) => Some(i as f64),
            _ => None,
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn to_scalar(&self) -> Scalar {
        self.as_ref().map_or(Scalar::Null, T::to_scalar)
    }
    fn from_scalar(s: Scalar) -> Option<Self> {
        match s {
            Scalar::Null => Some(None),
            s => T::from_scalar(s).map(Some),
        }
    }
}

/// One entry of a `record!` table.
struct Column {
    /// The JSON key and CSV header.
    name: &'static str,
    /// `=> omitted` columns leave their key out when the value is `None`;
    /// the others write `null`.
    omitted_when_null: bool,
}

/// A flat JSON object whose keys are a `record!` table.
trait Record: Sized {
    /// The table, in writing order.
    const COLUMNS: &'static [Column];
    /// One scalar per column.
    fn cells(&self) -> Vec<Scalar>;
    /// Build the record from the pairs of a parsed object; a pair left over
    /// (unknown or duplicate key) is an error.
    fn from_pairs(pairs: Pairs) -> Result<Self, String>;

    /// The `"key": value` members this record writes.
    fn members(&self) -> Vec<String> {
        let cells = self.cells();
        Self::COLUMNS
            .iter()
            .zip(&cells)
            .filter(|(col, cell)| !(col.omitted_when_null && **cell == Scalar::Null))
            .map(|(col, cell)| format!("\"{}\": {}", col.name, cell.json()))
            .collect()
    }
}

/// Declare a record struct and derive its [`Record`] impl from the one
/// field list.
macro_rules! record {
    (@omitted) => { false };
    (@omitted omitted) => { true };
    (
        $(#[$meta:meta])*
        pub struct $Name:ident {
            $( $(#[$doc:meta])* pub $field:ident : $ty:ty $(=> $omitted:ident)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $Name { $( $(#[$doc])* pub $field: $ty, )* }

        impl Record for $Name {
            const COLUMNS: &'static [Column] = &[ $( Column {
                name: stringify!($field),
                omitted_when_null: record!(@omitted $($omitted)?),
            } ),* ];
            fn cells(&self) -> Vec<Scalar> {
                vec![ $( self.$field.to_scalar() ),* ]
            }
            fn from_pairs(mut pairs: Pairs) -> Result<Self, String> {
                let record = Self { $( $field: pairs.take(stringify!($field))?, )* };
                pairs.finish().map(|()| record)
            }
        }
    };
}

record! {
    /// One row of a report: identity of the measurement (backend / P /
    /// policy / hub shards / gossip wire), what simulating it cost, the
    /// virtual-time results, and the memory story.
    pub struct PerfRow {
        /// The backend that drove the run (`sequential` / `parallel`).
        pub backend: String,
        /// PE count.
        pub pes: usize,
        /// Policy (or study-arm) label.
        pub policy: String,
        /// Resolved leaf shard count of the rendezvous hub.
        pub hub_shards: usize,
        /// Gossip wire-format label (`full` / `delta:<N>`).
        pub gossip_wire: String,
        /// Real wall-clock seconds spent simulating this run. `None` in
        /// batch studies: their jobs share one pool concurrently, so a
        /// per-run wall does not exist — the sweep's wall is the
        /// `batch_wall_s` summary key.
        pub sim_wall_s: Option<f64>,
        /// Virtual makespan in seconds.
        pub makespan_virtual_s: f64,
        /// Number of LB steps performed.
        pub lb_calls: usize,
        /// Mean PE utilization over the run.
        pub mean_utilization: f64,
        /// Load-imbalance factor: max busy time over mean busy time.
        pub busy_max_over_mean: f64,
        /// Fraction of total accounted virtual time spent idle.
        pub idle_fraction: f64,
        /// Aggregate WIR-database entries resident at run end.
        pub db_entries_total: u64,
        /// Process peak RSS in bytes (`VmHWM`; `None` off Linux). Monotone
        /// over the process lifetime.
        pub peak_rss_bytes: Option<u64>,
        /// Target per-iteration imbalance factor λ = max/mean of the
        /// workload generator (scenario rows only).
        pub lambda_target: Option<f64> => omitted,
        /// Achieved λ of the generated work tables, verified analytically
        /// by the generator (scenario rows only).
        pub lambda_achieved: Option<f64> => omitted,
    }
}

record! {
    /// The top-level keys between `smoke` and `rows`; a study writes the
    /// ones it measures.
    #[derive(Default)]
    pub struct Summary {
        /// Number of jobs in the batched sweep.
        pub jobs: Option<u64> => omitted,
        /// Wall seconds of the serial one-pool-per-run pass (`job_server`).
        pub serial_wall_s: Option<f64> => omitted,
        /// Wall seconds of the whole batched sweep (every batch study).
        pub batch_wall_s: Option<f64> => omitted,
        /// `serial_wall_s / batch_wall_s` (`job_server`).
        pub speedup: Option<f64> => omitted,
    }
}

impl Summary {
    /// The summary of a batch study that measures only its sweep wall.
    pub fn batch(batch_wall_s: f64) -> Self {
        Self { batch_wall_s: Some(batch_wall_s), ..Self::default() }
    }
}

impl PerfRow {
    /// Header of the CSV rendering: the column names.
    pub fn csv_header() -> Vec<&'static str> {
        Self::COLUMNS.iter().map(|c| c.name).collect()
    }

    /// This row as CSV cells (`null` is the empty cell).
    pub fn csv_row(&self) -> Vec<String> {
        self.cells().iter().map(Scalar::csv).collect()
    }
}

/// A whole report document.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Study name (`weak_scaling`, `job_server`, `fig4a`, …).
    pub study: String,
    /// Whether the study ran at smoke size.
    pub smoke: bool,
    /// The study-level measurements.
    pub summary: Summary,
    /// One row per measured run.
    pub rows: Vec<PerfRow>,
}

impl Report {
    /// Render the document (ends with a newline).
    pub fn to_json(&self) -> String {
        let mut doc = format!(
            "{{\n  \"schema\": 3,\n  \"study\": {},\n  \"smoke\": {},\n",
            self.study.to_scalar().json(),
            self.smoke
        );
        for member in self.summary.members() {
            doc.push_str(&format!("  {member},\n"));
        }
        doc.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            doc.push_str(&format!("    {{{}}}{comma}\n", row.members().join(", ")));
        }
        doc.push_str("  ]\n}\n");
        doc
    }

    /// Parse a document [`to_json`](Self::to_json) wrote.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser { src: text.as_bytes(), pos: 0 };
        let mut head = Pairs::default();
        let mut rows = None;
        p.object(|p, key| {
            if key == "rows" {
                let mut list = Vec::new();
                p.list((b'[', b']'), |p| {
                    list.push(PerfRow::from_pairs(p.flat_object()?)?);
                    Ok(())
                })?;
                rows = Some(list);
            } else {
                head.entries.push((key, p.pos, p.scalar()?));
            }
            Ok(())
        })?;
        p.skip_whitespace();
        if p.pos != p.src.len() {
            return Err(p.error("trailing bytes after the document"));
        }
        head.end = p.pos;
        if head.take::<u64>("schema")? != 3 {
            return Err(error_at(0, "`schema` is not 3"));
        }
        Ok(Self {
            study: head.take("study")?,
            smoke: head.take("smoke")?,
            rows: rows.ok_or_else(|| p.error("`rows` is missing"))?,
            summary: Summary::from_pairs(head)?,
        })
    }

    /// Write the document to `path`, creating parent directories.
    pub fn write(&self, path: &Path) {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).expect("cannot create JSON output directory");
        }
        std::fs::write(path, self.to_json()).expect("cannot write JSON report");
        println!("wrote {}", path.display());
    }

    /// Read and parse the report at `path`; the error names the path.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A read error: what was wrong, and the byte offset where.
fn error_at(offset: usize, message: &str) -> String {
    format!("byte {offset}: {message}")
}

/// The `(key, value offset, value)` pairs of a parsed flat object.
#[derive(Default)]
struct Pairs {
    entries: Vec<(String, usize, Scalar)>,
    /// Offset of the object's end, where a missing key is reported.
    end: usize,
}

impl Pairs {
    fn take<T: Field>(&mut self, key: &str) -> Result<T, String> {
        let (offset, value) = match self.entries.iter().position(|(k, ..)| k == key) {
            Some(i) => {
                let (_, offset, value) = self.entries.remove(i);
                (offset, value)
            }
            None => (self.end, Scalar::Null),
        };
        T::from_scalar(value)
            .ok_or_else(|| error_at(offset, &format!("`{key}` is missing or has the wrong type")))
    }

    fn finish(self) -> Result<(), String> {
        match self.entries.first() {
            Some((key, offset, _)) => {
                Err(error_at(*offset, &format!("unknown or duplicate key `{key}`")))
            }
            None => Ok(()),
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> String {
        error_at(self.pos, message)
    }

    fn skip_whitespace(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let hit = self.src.get(self.pos) == Some(&byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    /// `open item, item, … close`, calling `item` positioned at each one.
    fn list(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_whitespace();
            item(self)?;
            if !self.eat(b',') {
                return self.expect(close);
            }
        }
    }

    /// An object, calling `value(self, key)` positioned at each value.
    fn object(
        &mut self,
        mut value: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.list((b'{', b'}'), |p| {
            let key = p.string()?;
            p.expect(b':')?;
            p.skip_whitespace();
            value(p, key)
        })
    }

    /// An object whose values are all scalars.
    fn flat_object(&mut self) -> Result<Pairs, String> {
        let mut pairs = Pairs::default();
        self.object(|p, key| {
            pairs.entries.push((key, p.pos, p.scalar()?));
            Ok(())
        })?;
        pairs.end = self.pos;
        Ok(pairs)
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        let rest = &self.src[self.pos..];
        if rest.first() == Some(&b'"') {
            return self.string().map(Scalar::Str);
        }
        let len = rest
            .iter()
            .take_while(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'-' | b'+' | b'.' | b'E'))
            .count();
        let token = std::str::from_utf8(&rest[..len]).expect("ASCII token");
        let value =
            match token {
                "null" => Some(Scalar::Null),
                "true" => Some(Scalar::Bool(true)),
                "false" => Some(Scalar::Bool(false)),
                // Rust's float grammar also takes `inf` and `nan`; JSON's does not.
                _ => token.parse().map(Scalar::Int).ok().or_else(|| {
                    token.parse().ok().filter(|x: &f64| x.is_finite()).map(Scalar::Float)
                }),
            };
        let value = value.ok_or_else(|| self.error("expected a string, number, bool or null"))?;
        self.pos += len;
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.src.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected `\"`"));
        }
        let mut out = Vec::new();
        loop {
            self.pos += 1;
            match self.src.get(self.pos).copied() {
                Some(b'"') => break,
                Some(b'\\') => {
                    self.pos += 1;
                    let letter = self.src.get(self.pos).copied();
                    let c = if let Some((_, c)) = ESCAPES.iter().find(|(l, _)| Some(*l) == letter) {
                        *c
                    } else if letter == Some(b'u') {
                        let hex = self.src.get(self.pos + 1..self.pos + 5);
                        let c = hex
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.error("bad \\u escape"))?;
                        self.pos += 4;
                        c
                    } else {
                        return Err(self.error("unsupported escape"));
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(byte) if byte >= 0x20 => out.push(byte),
                _ => return Err(self.error("unterminated string or raw control character")),
            }
        }
        self.pos += 1;
        // The source is a `&str` and only whole escapes were replaced.
        Ok(String::from_utf8(out).expect("string bytes stay valid UTF-8"))
    }
}

// --- building rows -------------------------------------------------------

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), if the platform exposes it. Monotone over the
/// process lifetime — in a multi-run invocation each reading covers
/// everything run so far, which is the honest budget-gate semantics.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The measurements every run of the LB driver shares, borrowed from an
/// application's flat result — what [`perf_row`] reads.
pub struct RunView<'a> {
    backend: ulba_runtime::Backend,
    hub_shards: usize,
    makespan: f64,
    lb_calls: usize,
    mean_utilization: f64,
    db_entries_total: u64,
    rank_metrics: &'a [ulba_runtime::RankMetrics],
    /// The generator's `(target, achieved)` λ (scenario runs only).
    lambda: Option<(f64, f64)>,
}

impl<'a> From<&'a ulba_erosion::ExperimentResult> for RunView<'a> {
    fn from(r: &'a ulba_erosion::ExperimentResult) -> Self {
        Self {
            backend: r.backend,
            hub_shards: r.hub_shards,
            makespan: r.makespan,
            lb_calls: r.lb_calls,
            mean_utilization: r.mean_utilization,
            db_entries_total: r.db_entries_total,
            rank_metrics: &r.rank_metrics,
            lambda: None,
        }
    }
}

impl<'a> From<&'a ulba_scenario::ScenarioResult> for RunView<'a> {
    fn from(r: &'a ulba_scenario::ScenarioResult) -> Self {
        Self {
            backend: r.backend,
            hub_shards: r.hub_shards,
            makespan: r.makespan,
            lb_calls: r.lb_calls,
            mean_utilization: r.mean_utilization,
            db_entries_total: r.db_entries_total,
            rank_metrics: &r.rank_metrics,
            lambda: Some((r.lambda_target, r.lambda_achieved)),
        }
    }
}

/// Build a [`PerfRow`] from one experiment (erosion or scenario), deriving
/// the imbalance statistics from the per-rank metrics; scenario rows carry
/// the generator's λ accounting. The backend label is the one the run
/// resolved to, never a raw flag or environment string. `sim_wall_s` is
/// `None` for a job of a batched sweep.
pub fn perf_row<'a>(
    policy: &str,
    pes: usize,
    gossip_wire: GossipWire,
    res: impl Into<RunView<'a>>,
    sim_wall_s: Option<f64>,
) -> PerfRow {
    let res: RunView<'a> = res.into();
    let busy_sum: f64 = res.rank_metrics.iter().map(|m| m.busy).sum();
    let busy_mean = busy_sum / res.rank_metrics.len().max(1) as f64;
    let busy_max = res.rank_metrics.iter().map(|m| m.busy).fold(0.0f64, f64::max);
    let busy_max_over_mean = if busy_mean > 0.0 { busy_max / busy_mean } else { 1.0 };
    let total: f64 = res.rank_metrics.iter().map(|m| m.total()).sum();
    let idle_fraction = if total > 0.0 {
        res.rank_metrics.iter().map(|m| m.idle).sum::<f64>() / total
    } else {
        0.0
    };
    PerfRow {
        backend: res.backend.to_string(),
        pes,
        policy: policy.to_string(),
        hub_shards: res.hub_shards,
        gossip_wire: gossip_wire.to_string(),
        sim_wall_s,
        makespan_virtual_s: res.makespan,
        lb_calls: res.lb_calls,
        mean_utilization: res.mean_utilization,
        busy_max_over_mean,
        idle_fraction,
        db_entries_total: res.db_entries_total,
        peak_rss_bytes: peak_rss_bytes(),
        lambda_target: res.lambda.map(|l| l.0),
        lambda_achieved: res.lambda.map(|l| l.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn label(rng: &mut StdRng) -> String {
        const PALETTE: [char; 20] = [
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'λ', 'α', '😀', ' ',
            ',', '+', ':', '/', '{', 'a', '0',
        ];
        (0..rng.random_range(0..12)).map(|_| PALETTE[rng.random_range(0..PALETTE.len())]).collect()
    }

    /// Finite floats of every shape: integer-valued (written without a
    /// point), huge (written as hundreds of digits), tiny, negative, raw bits.
    fn float(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..6) {
            0 => rng.random_range(0..100u64) as f64,
            1 => 1e300 * rng.random::<f64>(),
            2 => 1e-300 * rng.random::<f64>(),
            3 => -rng.random::<f64>(),
            4 => Some(f64::from_bits(rng.random())).filter(|x| x.is_finite()).unwrap_or(0.0),
            _ => rng.random::<f64>() * 100.0,
        }
    }

    fn maybe<T>(rng: &mut StdRng, value: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
        rng.random_bool(0.5).then(|| value(rng))
    }

    fn row(rng: &mut StdRng) -> PerfRow {
        PerfRow {
            backend: label(rng),
            pes: rng.random_range(0..=1 << 20),
            policy: label(rng),
            hub_shards: rng.random_range(1..=64),
            gossip_wire: label(rng),
            sim_wall_s: maybe(rng, float),
            makespan_virtual_s: float(rng),
            lb_calls: rng.random_range(0..1000),
            mean_utilization: float(rng),
            busy_max_over_mean: float(rng),
            idle_fraction: float(rng),
            db_entries_total: rng.random(),
            peak_rss_bytes: maybe(rng, |rng| rng.random()),
            lambda_target: maybe(rng, float),
            lambda_achieved: maybe(rng, float),
        }
    }

    #[test]
    fn random_reports_round_trip() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..300 {
            let report = Report {
                study: label(&mut rng),
                smoke: rng.random(),
                summary: Summary {
                    jobs: maybe(&mut rng, |rng| rng.random()),
                    serial_wall_s: maybe(&mut rng, float),
                    batch_wall_s: maybe(&mut rng, float),
                    speedup: maybe(&mut rng, float),
                },
                rows: (0..rng.random_range(0..4)).map(|_| row(&mut rng)).collect(),
            };
            let text = report.to_json();
            assert_eq!(Report::parse(&text), Ok(report), "{text}");
        }
    }

    #[test]
    fn non_finite_floats_are_written_null_and_read_back_as_absent() {
        let mut rng = StdRng::seed_from_u64(1);
        let rows = vec![PerfRow { sim_wall_s: Some(f64::INFINITY), ..row(&mut rng) }];
        let summary = Summary { speedup: Some(f64::NAN), jobs: Some(2), ..Summary::default() };
        let report = Report { study: "s".into(), smoke: false, summary, rows };
        let text = report.to_json();
        assert!(text.contains("\"speedup\": null") && text.contains("\"sim_wall_s\": null"));
        let back = Report::parse(&text).unwrap();
        assert_eq!((back.summary.speedup, back.summary.jobs), (None, Some(2)));
        assert_eq!(back.rows[0].sim_wall_s, None);
        // A non-finite *required* column makes the document unreadable.
        let mut broken = report;
        broken.rows[0].makespan_virtual_s = f64::NAN;
        let err = Report::parse(&broken.to_json()).unwrap_err();
        assert!(err.contains("`makespan_virtual_s` is missing or has the wrong type"), "{err}");
    }

    #[test]
    fn committed_reports_are_reproduced_to_the_byte() {
        // The writer's format did not move: write(read(f)) == f.
        for name in ["seed", "weak_scaling", "hub_shards_1", "p65536", "job_server", "scenarios"] {
            let path = format!("{}/../../results/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            let committed = std::fs::read_to_string(&path).unwrap();
            let report = Report::read(Path::new(&path)).unwrap();
            assert_eq!(report.to_json(), committed, "{path}");
        }
    }

    #[test]
    fn malformed_documents_name_the_byte_offset() {
        let good =
            Report { study: "s".into(), smoke: true, summary: Summary::batch(1.5), rows: vec![] }
                .to_json();
        assert!(Report::parse(&good).is_ok());
        // (document, where the error points — `$` = the end, what it says)
        for (broken, at, what) in [
            (good.replace("3,", "2,"), "{", "`schema` is not 3"),
            (good.replace("true", "yes"), "yes", "expected a string, number, bool or null"),
            (good.replace("1.5", "[1.5]"), "[1.5]", "expected a string, number, bool or null"),
            (good.replace("1.5", "1.5.5"), "1.5.5", "expected a string, number, bool or null"),
            (
                good.replace("1.5", "\"1.5\""),
                "\"1.5\"",
                "`batch_wall_s` is missing or has the wrong",
            ),
            (good.replace("wall_s", "wall"), "1.5", "unknown or duplicate key `batch_wall`"),
            (good.replace("\"s\"", "\"\\/\""), "/", "unsupported escape"),
            (good.replace("\"s\"", "\"s"), "\n  \"smoke", "unterminated string or raw control"),
            (good.replace("\"rows\": [", "\"rows\": [{}"), "\n  ]", "`backend` is missing"),
            (good.replace("\"rows\": [\n  ]", "\"jobs\": 1"), "$", "`rows` is missing"),
            (good.replace("}\n", "} x"), "x", "trailing bytes"),
        ] {
            let offset = if at == "$" { broken.len() } else { broken.find(at).unwrap() };
            let err = Report::parse(&broken).unwrap_err();
            assert!(err.starts_with(&format!("byte {offset}: ")), "{err}\n{broken}");
            assert!(err.contains(what), "{err}\n{broken}");
        }
    }

    #[test]
    fn peak_rss_probe_is_sane() {
        // Linux exposes VmHWM; elsewhere the probe degrades to None. Either
        // way it must not panic, and a reading must be positive.
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0);
        }
    }
}
