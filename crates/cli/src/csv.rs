//! Minimal CSV reading/writing for point data and cluster labels.
//!
//! Format: one point per line, coordinates separated by commas. An optional
//! header line is detected (any non-numeric first field) and skipped on
//! read; labels are written as an extra final column where requested
//! (`noise` for unclustered points).

use dbdc_geom::{Clustering, Dataset, Label};
use std::io::{BufRead, Write};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number, message).
    Parse(usize, String),
    /// The file contained no data rows.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            CsvError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Reads a dataset from CSV. All rows must have the same number of numeric
/// columns; a single leading header row is skipped automatically.
pub fn read_dataset(reader: impl BufRead) -> Result<Dataset, CsvError> {
    let mut data: Option<Dataset> = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let parsed: Result<Vec<f64>, _> = fields.iter().map(|f| f.parse::<f64>()).collect();
        match parsed {
            Err(_) if i == 0 && data.is_none() => continue, // header
            Err(e) => {
                return Err(CsvError::Parse(i + 1, format!("bad number: {e}")));
            }
            Ok(coords) => {
                if coords.is_empty() {
                    return Err(CsvError::Parse(i + 1, "empty row".into()));
                }
                if !coords.iter().all(|c| c.is_finite()) {
                    return Err(CsvError::Parse(i + 1, "non-finite coordinate".into()));
                }
                let d = data.get_or_insert_with(|| Dataset::new(coords.len()));
                if coords.len() != d.dim() {
                    return Err(CsvError::Parse(
                        i + 1,
                        format!("expected {} columns, got {}", d.dim(), coords.len()),
                    ));
                }
                d.push(&coords);
            }
        }
    }
    data.ok_or(CsvError::Empty)
}

/// Writes a dataset (optionally with labels) as CSV.
pub fn write_dataset(
    mut out: impl Write,
    data: &Dataset,
    labels: Option<&Clustering>,
) -> std::io::Result<()> {
    if let Some(l) = labels {
        assert_eq!(l.len(), data.len(), "labels must cover the dataset");
    }
    for (i, p) in data.iter().enumerate() {
        let coords: Vec<String> = p.iter().map(|c| format!("{c}")).collect();
        match labels.map(|l| l.label(i as u32)) {
            Some(Label::Cluster(c)) => writeln!(out, "{},{c}", coords.join(","))?,
            Some(Label::Noise) => writeln!(out, "{},noise", coords.join(","))?,
            None => writeln!(out, "{}", coords.join(","))?,
        }
    }
    // A buffered writer dropped unflushed would discard the last error.
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdc_geom::Label;

    #[test]
    fn round_trip() {
        let d = Dataset::from_flat(2, vec![1.0, 2.0, 3.5, -4.25]);
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d, None).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn skips_header() {
        let input = "x,y\n1.0,2.0\n3.0,4.0\n";
        let d = read_dataset(input.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let input = "1.0,2.0\n3.0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse(2, _)), "{err}");
    }

    #[test]
    fn rejects_bad_numbers_mid_file() {
        let input = "1.0,2.0\nfoo,4.0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse(2, _)), "{err}");
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(read_dataset("".as_bytes()), Err(CsvError::Empty)));
        assert!(matches!(
            read_dataset("x,y\n".as_bytes()),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn writes_labels() {
        let d = Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let labels = Clustering::from_labels(vec![Label::Cluster(0), Label::Noise]);
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d, Some(&labels)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "1,2,0\n3,4,noise\n");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let input = "1.0,2.0\n\n3.0,4.0\n\n";
        let d = read_dataset(input.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
    }
}
