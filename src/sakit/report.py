"""CSV and static SVG emission for allocation proportions and RF series."""

import os

from .netspec import csv_text

_PALETTE = ["#4878cf", "#ee854a", "#6acc65", "#d65f5f", "#956cb4", "#8c613c"]
_WIDTH, _HEIGHT = 720, 360  # of every SVG figure


def plan_proportions(plan):
    """Rows (k, [channels...], [fractions...]) for every block in order."""
    rows = []
    for k in sorted(plan.rows):
        counts = plan.rows[k]
        total = sum(counts)
        rows.append((k, list(counts), [c / total for c in counts]))
    return rows


def proportions_csv(plan) -> str:
    return csv_text("k,scale,channels,proportion",
                    ((k, s, c, f"{f:.6f}") for k, counts, fracs in plan_proportions(plan)
                     for s, c, f in zip(plan.scales, counts, fracs)))


def _svg_header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<title>{title}</title>',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]


def proportions_svg(plan) -> str:
    """Stacked per-block bars of the per-scale channel shares."""
    rows = plan_proportions(plan)
    margin_l, margin_r, margin_t, margin_b = 50, 110, 30, 40
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b
    bar_w = plot_w / max(len(rows), 1)
    parts = _svg_header("per-scale channel proportion by block")
    for i, (k, _counts, fracs) in enumerate(rows):
        x = margin_l + i * bar_w
        y = margin_t
        for si, f in enumerate(fracs):
            h = f * plot_h
            color = _PALETTE[si % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w * 0.9:.1f}" '
                f'height="{h:.1f}" fill="{color}"/>')
            y += h
        if len(rows) <= 20 or i % 5 == 0:
            parts.append(
                f'<text x="{x + bar_w * 0.45:.1f}" y="{_HEIGHT - margin_b + 15}" '
                f'font-size="10" text-anchor="middle">{k}</text>')
    for si, s in enumerate(plan.scales):
        ly = margin_t + 16 * si
        color = _PALETTE[si % len(_PALETTE)]
        parts.append(f'<rect x="{_WIDTH - margin_r + 10}" y="{ly}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{_WIDTH - margin_r + 27}" y="{ly + 10}" '
                     f'font-size="11">scale {s}</text>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.0f}" y="{_HEIGHT - 8}" '
                 f'font-size="11" text-anchor="middle">block index</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def rf_series_svg(rows, reference) -> str:
    """Min/max receptive-field extent against block index, two polylines,
    and the input extent ``reference`` as a dashed line."""
    margin_l, margin_r, margin_t, margin_b = 60, 120, 30, 40
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b
    xs = [k for k, _, _ in rows]
    tops = [float(hi) for _, _, hi in rows]
    y_max = max(tops + [reference]) * 1.05
    x_span = max(xs) - min(xs) or 1

    def px(k):
        return margin_l + (k - min(xs)) / x_span * plot_w

    def py(v):
        return margin_t + plot_h - float(v) / y_max * plot_h

    parts = _svg_header("receptive-field interval by block")
    for label, idx, color in (("min rf", 1, _PALETTE[0]), ("max rf", 2, _PALETTE[3])):
        pts = " ".join(f"{px(r[0]):.1f},{py(r[idx]):.1f}" for r in rows)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        ly = margin_t + 16 * (idx - 1)
        parts.append(f'<rect x="{_WIDTH - margin_r + 10}" y="{ly}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{_WIDTH - margin_r + 27}" y="{ly + 10}" '
                     f'font-size="11">{label}</text>')
    parts.append(f'<line x1="{margin_l}" y1="{py(reference):.1f}" '
                 f'x2="{margin_l + plot_w}" y2="{py(reference):.1f}" '
                 f'stroke="#888888" stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{_WIDTH - margin_r + 10}" y="{py(reference) + 4:.1f}" '
                 f'font-size="10">input extent {reference}</text>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.0f}" y="{_HEIGHT - 8}" '
                 f'font-size="11" text-anchor="middle">block index</text>')
    for frac in (0.0, 0.5, 1.0):
        v = y_max * frac
        parts.append(f'<text x="{margin_l - 8}" y="{py(v) + 4:.1f}" font-size="10" '
                     f'text-anchor="end">{v:.0f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(plan, out_dir, spec=None):
    """Write proportions CSV+SVG and, given the network ``spec``, its RF
    CSV+SVG against its input extent. Returns the written paths."""
    from .checkpoint import write_text
    from .rf import rf_network_report, rf_report_csv

    texts = {"proportions.csv": proportions_csv(plan),
             "proportions.svg": proportions_svg(plan)}
    if spec is not None:
        rows = rf_network_report(spec)
        texts["rf.csv"] = rf_report_csv(rows)
        texts["rf.svg"] = rf_series_svg(rows, spec.input_shape[1])
    paths = {name: os.path.join(out_dir, name) for name in texts}
    for name, text in texts.items():
        write_text(paths[name], text)
    return paths
