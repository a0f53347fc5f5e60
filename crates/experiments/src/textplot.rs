//! Minimal ASCII plotting for figure reproduction in a terminal.

/// Renders grouped bars: for each label, one bar per series. Used for the
/// per-benchmark figures with three methods.
pub fn grouped_bar_chart(
    title: &str,
    series_names: &[&str],
    rows: &[(String, Vec<f64>)],
    max_value: f64,
    width: usize,
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let label_width = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(series_names.iter().map(|s| s.len()))
        .max()
        .unwrap_or(0);
    let scale = if max_value > 0.0 { max_value } else { 1.0 };
    for (label, values) in rows {
        out.push_str(&format!("{label}\n"));
        for (name, value) in series_names.iter().zip(values) {
            let v = value.max(0.0);
            let filled = (((v / scale) * width as f64).round() as usize).min(width);
            out.push_str(&format!(
                "  {name:<label_width$} | {}{} {v:.3}\n",
                "▒".repeat(filled),
                " ".repeat(width - filled),
            ));
        }
    }
    out
}

/// Renders two aligned series as a simple line-ish dot plot over integer x
/// values (used for Figure 8).
pub fn dual_series(
    title: &str,
    xs: &[usize],
    series_a: (&str, &[f64]),
    series_b: (&str, &[f64]),
    width: usize,
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let max = series_a
        .1
        .iter()
        .chain(series_b.1)
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-9);
    for (i, &x) in xs.iter().enumerate() {
        let pos_a = (((series_a.1[i].max(0.0) / max) * width as f64).round() as usize).min(width);
        let pos_b = (((series_b.1[i].max(0.0) / max) * width as f64).round() as usize).min(width);
        let mut line = vec![' '; width + 1];
        line[pos_b] = 'r';
        line[pos_a] = 'K'; // K wins ties: draws over r
        let line: String = line.into_iter().collect();
        out.push_str(&format!(
            "k={x:>2} |{line}|  {}={:.3} {}={:.3}\n",
            series_a.0, series_a.1[i], series_b.0, series_b.1[i]
        ));
    }
    out.push_str(&format!("       K = {}, r = {}\n", series_a.0, series_b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_chart_has_series_per_row() {
        let rows = vec![("bench".to_owned(), vec![0.9, 0.5])];
        let chart = grouped_bar_chart("t", &["A", "B"], &rows, 1.0, 8);
        assert!(chart.contains("bench"));
        assert!(chart.contains("A"));
        assert!(chart.contains("B"));
    }

    #[test]
    fn dual_series_renders_markers() {
        let chart = dual_series(
            "fig",
            &[1, 2],
            ("med", &[0.8, 0.9]),
            ("rnd", &[0.4, 0.5]),
            20,
        );
        assert!(chart.contains("k= 1"));
        assert!(chart.contains('K'));
        assert!(chart.contains('r'));
    }
}
