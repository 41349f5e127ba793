//! The `moqo-bench-snapshot/v1` codec: the one cell type `bench_snapshot`
//! and `service_load` write and `bench_diff` reads back.
//!
//! A snapshot is a JSON object with a few header fields and a `"results"`
//! array of flat cell objects, one per line:
//!
//! ```text
//! {"name": "exa_chain", "tables": 6, "median_ms": 20.5000, "checksum": 11}
//! ```
//!
//! Parameter values that parse as numbers are written bare, anything else
//! as a JSON string. The parser is not a general JSON parser on purpose —
//! the workspace is dependency-free and the input is machine-written.

/// One benchmark cell: identity (name + params), timing, and checksum.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Workload name.
    pub name: String,
    /// Workload parameters, in written order.
    pub params: Vec<(String, String)>,
    /// Median wall time (or the cell's measured value), in milliseconds.
    pub median_ms: f64,
    /// Workload-specific integrity value (front/set size, counter,
    /// checksum) proving that two snapshots measured equivalent work.
    pub checksum: u64,
}

impl Cell {
    /// A cell without parameters.
    #[must_use]
    pub fn new(name: impl Into<String>, median_ms: f64, checksum: u64) -> Self {
        Cell {
            name: name.into(),
            params: Vec::new(),
            median_ms,
            checksum,
        }
    }

    /// Appends one parameter (builder style).
    #[must_use]
    pub fn param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.push((key.to_owned(), value.to_string()));
        self
    }

    /// `name[key=value, ...]` with the parameters sorted by key: how
    /// `bench_diff` matches cells across snapshots.
    #[must_use]
    pub fn identity(&self) -> String {
        if self.params.is_empty() {
            return self.name.clone();
        }
        let mut params: Vec<&(String, String)> = self.params.iter().collect();
        params.sort_by_key(|(key, _)| key);
        let params: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}[{}]", self.name, params.join(", "))
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a snapshot document: the schema, the `header` fields in order
/// (values written verbatim), then one line per cell.
#[must_use]
pub fn write(header: &[(&str, String)], cells: &[Cell]) -> String {
    let mut json = String::from("{\n  \"schema\": \"moqo-bench-snapshot/v1\",\n");
    for (key, value) in header {
        json.push_str(&format!("  \"{key}\": {value},\n"));
    }
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let mut fields = vec![format!("\"name\": \"{}\"", json_escape(&c.name))];
        for (k, v) in &c.params {
            let k = json_escape(k);
            fields.push(if v.parse::<f64>().is_ok() {
                format!("\"{k}\": {v}")
            } else {
                format!("\"{k}\": \"{}\"", json_escape(v))
            });
        }
        fields.push(format!("\"median_ms\": {:.4}", c.median_ms));
        fields.push(format!("\"checksum\": {}", c.checksum));
        let comma = if i + 1 < cells.len() { "," } else { "" };
        json.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Parses the `"results"` array of a snapshot document.
///
/// # Errors
///
/// A description of the first malformed construct.
pub fn parse(text: &str) -> Result<Vec<Cell>, String> {
    let results_at = text
        .find("\"results\"")
        .ok_or_else(|| "no \"results\" array found".to_owned())?;
    let rest = &text[results_at..];
    let open = rest
        .find('[')
        .ok_or_else(|| "\"results\" is not an array".to_owned())?;
    let mut rest = &rest[open + 1..];
    let mut cells = Vec::new();
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        match rest.chars().next() {
            Some('{') => {
                let end = rest
                    .find('}')
                    .ok_or_else(|| "unterminated result object".to_owned())?;
                cells.push(parse_object(&rest[1..end])?);
                rest = &rest[end + 1..];
            }
            Some(']') => return Ok(cells),
            Some(other) => return Err(format!("unexpected character {other:?} in results array")),
            None => return Err("unterminated results array".to_owned()),
        }
    }
}

/// Parses the interior of one flat `{...}` object (no nesting).
fn parse_object(body: &str) -> Result<Cell, String> {
    let mut name = None;
    let mut median_ms = None;
    let mut checksum = None;
    let mut params = Vec::new();
    for pair in split_top_level(body) {
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed field {pair:?}"))?;
        let key = key.trim().trim_matches('"');
        let value = value.trim().trim_matches('"').to_owned();
        match key {
            "name" => name = Some(value),
            "median_ms" => median_ms = Some(value),
            "checksum" => checksum = Some(value),
            _ => params.push((key.to_owned(), value)),
        }
    }
    let name = name.ok_or_else(|| "cell without a name".to_owned())?;
    let median_ms = median_ms
        .ok_or_else(|| format!("cell {name} lacks median_ms"))?
        .parse::<f64>()
        .map_err(|e| format!("cell {name}: bad median_ms: {e}"))?;
    let checksum = checksum
        .ok_or_else(|| format!("cell {name} lacks checksum"))?
        .parse::<u64>()
        .map_err(|e| format!("cell {name}: bad checksum: {e}"))?;
    Ok(Cell {
        name,
        params,
        median_ms,
        checksum,
    })
}

/// Splits `a: 1, b: "x,y"` on commas outside string literals.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts.retain(|p| !p.trim().is_empty());
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_parse_round_trips() {
        let cells = vec![
            Cell::new("exa_chain", 20.5, 11).param("tables", 6),
            Cell::new("frontier_insert_stream", 1.25, 383)
                .param("objectives", 6)
                .param("layout", "grid")
                .param("vectors", 2000),
            Cell::new("service_trace_replay", 0.0, u64::MAX).param("counter", "stream_checksum"),
        ];
        let text = write(&[("pr", "6".into()), ("smoke", "false".into())], &cells);
        assert!(text.starts_with("{\n  \"schema\": \"moqo-bench-snapshot/v1\",\n  \"pr\": 6,\n"));
        assert!(text.contains(
            "    {\"name\": \"frontier_insert_stream\", \"objectives\": 6, \"layout\": \"grid\", \
             \"vectors\": 2000, \"median_ms\": 1.2500, \"checksum\": 383},\n"
        ));
        assert_eq!(parse(&text).unwrap(), cells);
        assert_eq!(
            cells[1].identity(),
            "frontier_insert_stream[layout=grid, objectives=6, vectors=2000]"
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        assert!(parse("{}").is_err());
        assert!(parse("{\"results\": [ {\"name\": \"x\", \"median_ms\": 1} ]}").is_err());
        assert!(
            parse("{\"results\": [ {\"name\": \"x\", \"median_ms\": 1, \"checksum\": 2}").is_err()
        );
        assert!(parse("{\"results\": [ x ]}").is_err());
    }
}
