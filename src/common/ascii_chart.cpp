#include "common/ascii_chart.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace conscale {

namespace {

constexpr char kSeriesGlyphs[] = {'*', '+', 'o', 'x', '%', '&'};

struct Bounds {
  double x_min = std::numeric_limits<double>::infinity();
  double x_max = -std::numeric_limits<double>::infinity();
  double y_min = std::numeric_limits<double>::infinity();
  double y_max = -std::numeric_limits<double>::infinity();
  bool valid = false;
};

Bounds data_bounds(const std::vector<Series>& series) {
  Bounds b;
  for (const auto& s : series) {
    const std::size_t n = std::min(s.x.size(), s.y.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(s.x[i]) || !std::isfinite(s.y[i])) continue;
      b.x_min = std::min(b.x_min, s.x[i]);
      b.x_max = std::max(b.x_max, s.x[i]);
      b.y_min = std::min(b.y_min, s.y[i]);
      b.y_max = std::max(b.y_max, s.y[i]);
      b.valid = true;
    }
  }
  return b;
}

std::string format_tick(double v) {
  char buf[24];
  if (std::abs(v) >= 10000.0) {
    std::snprintf(buf, sizeof(buf), "%.3g", v);
  } else if (std::abs(v - std::round(v)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

class Canvas {
 public:
  Canvas(int width, int height)
      : width_(width), height_(height),
        cells_(static_cast<std::size_t>(width * height), ' ') {}

  void put(int col, int row, char c) {
    if (col < 0 || col >= width_ || row < 0 || row >= height_) return;
    cells_[static_cast<std::size_t>(row * width_ + col)] = c;
  }

  char get(int col, int row) const {
    if (col < 0 || col >= width_ || row < 0 || row >= height_) return ' ';
    return cells_[static_cast<std::size_t>(row * width_ + col)];
  }

  int width() const { return width_; }
  int height() const { return height_; }

 private:
  int width_;
  int height_;
  std::vector<char> cells_;
};

std::string assemble(const Canvas& canvas, const Bounds& bounds,
                     const ChartOptions& options, const std::string& legend) {
  std::ostringstream out;
  constexpr int kGutter = 10;
  if (!options.y_label.empty()) {
    out << std::string(kGutter, ' ') << options.y_label << '\n';
  }
  for (int row = 0; row < canvas.height(); ++row) {
    const double frac =
        1.0 - static_cast<double>(row) / static_cast<double>(canvas.height() - 1);
    const double y_val = bounds.y_min + frac * (bounds.y_max - bounds.y_min);
    const bool tick = row % 4 == 0 || row == canvas.height() - 1;
    std::string label = tick ? format_tick(y_val) : "";
    out << std::string(kGutter - 2 - std::min<std::size_t>(label.size(), kGutter - 2),
                       ' ')
        << label << (tick ? " |" : " |");
    for (int col = 0; col < canvas.width(); ++col) out << canvas.get(col, row);
    out << '\n';
  }
  out << std::string(kGutter, ' ') << '+' << std::string(canvas.width(), '-')
      << '\n';
  // X tick labels at the quarters.
  out << std::string(kGutter, ' ');
  std::string xline(static_cast<std::size_t>(canvas.width() + 1), ' ');
  for (int q = 0; q <= 4; ++q) {
    const double frac = static_cast<double>(q) / 4.0;
    const double x_val = bounds.x_min + frac * (bounds.x_max - bounds.x_min);
    std::string label = format_tick(x_val);
    auto pos = static_cast<std::size_t>(frac * (canvas.width() - 1));
    if (pos + label.size() > xline.size()) {
      pos = xline.size() >= label.size() ? xline.size() - label.size() : 0;
    }
    xline.replace(pos, label.size(), label);
  }
  out << xline << '\n';
  if (!options.x_label.empty()) {
    out << std::string(kGutter + canvas.width() / 2 -
                           static_cast<int>(options.x_label.size() / 2),
                       ' ')
        << options.x_label << '\n';
  }
  if (!legend.empty()) out << legend << '\n';
  return out.str();
}

Bounds apply_option_bounds(Bounds bounds, const ChartOptions& options) {
  if (!options.auto_y_min) bounds.y_min = options.y_min;
  if (options.y_max > 0.0) bounds.y_max = options.y_max;
  if (bounds.y_max <= bounds.y_min) bounds.y_max = bounds.y_min + 1.0;
  if (bounds.x_max <= bounds.x_min) bounds.x_max = bounds.x_min + 1.0;
  return bounds;
}

}  // namespace

std::string render_lines(const std::vector<Series>& series,
                         const ChartOptions& options) {
  Bounds bounds = data_bounds(series);
  if (!bounds.valid) return "(no data)\n";
  bounds = apply_option_bounds(bounds, options);

  Canvas canvas(options.width, options.height);
  std::ostringstream legend;
  legend << "  legend:";
  for (std::size_t s = 0; s < series.size(); ++s) {
    const char glyph = kSeriesGlyphs[s % std::size(kSeriesGlyphs)];
    legend << "  [" << glyph << "] " << series[s].name;
    const auto& sr = series[s];
    const std::size_t n = std::min(sr.x.size(), sr.y.size());
    int prev_col = -1, prev_row = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(sr.x[i]) || !std::isfinite(sr.y[i])) continue;
      const double fx = (sr.x[i] - bounds.x_min) / (bounds.x_max - bounds.x_min);
      const double fy = (sr.y[i] - bounds.y_min) / (bounds.y_max - bounds.y_min);
      const int col = static_cast<int>(std::round(fx * (options.width - 1)));
      const int row = static_cast<int>(
          std::round((1.0 - std::clamp(fy, 0.0, 1.0)) * (options.height - 1)));
      canvas.put(col, row, glyph);
      // Connect consecutive points vertically so spikes remain visible.
      if (prev_col >= 0 && col == prev_col + 1 && std::abs(row - prev_row) > 1) {
        const int step = row > prev_row ? 1 : -1;
        for (int r = prev_row + step; r != row; r += step) {
          if (canvas.get(col, r) == ' ') canvas.put(col, r, '|');
        }
      }
      prev_col = col;
      prev_row = row;
    }
  }
  return assemble(canvas, bounds, options, legend.str());
}

std::string render_scatter(const Series& points, const ChartOptions& options) {
  Bounds bounds = data_bounds({points});
  if (!bounds.valid) return "(no data)\n";
  bounds = apply_option_bounds(bounds, options);

  // Count hits per cell, then map density to a ramp.
  std::vector<int> density(
      static_cast<std::size_t>(options.width * options.height), 0);
  const std::size_t n = std::min(points.x.size(), points.y.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(points.x[i]) || !std::isfinite(points.y[i])) continue;
    const double fx = (points.x[i] - bounds.x_min) / (bounds.x_max - bounds.x_min);
    const double fy = (points.y[i] - bounds.y_min) / (bounds.y_max - bounds.y_min);
    const int col = static_cast<int>(std::round(std::clamp(fx, 0.0, 1.0) *
                                                (options.width - 1)));
    const int row = static_cast<int>(
        std::round((1.0 - std::clamp(fy, 0.0, 1.0)) * (options.height - 1)));
    ++density[static_cast<std::size_t>(row * options.width + col)];
  }
  int max_density = 0;
  for (int d : density) max_density = std::max(max_density, d);

  static constexpr char kRamp[] = {'.', ':', '*', '#', '@'};
  Canvas canvas(options.width, options.height);
  for (int row = 0; row < options.height; ++row) {
    for (int col = 0; col < options.width; ++col) {
      const int d = density[static_cast<std::size_t>(row * options.width + col)];
      if (d == 0) continue;
      const double frac =
          max_density > 1 ? static_cast<double>(d - 1) /
                                static_cast<double>(max_density - 1)
                          : 0.0;
      const auto ramp_idx = static_cast<std::size_t>(
          std::round(frac * (std::size(kRamp) - 1)));
      canvas.put(col, row, kRamp[ramp_idx]);
    }
  }
  std::string legend = "  scatter: " + points.name +
                       "  (density ramp . : * # @, n=" + std::to_string(n) + ")";
  return assemble(canvas, bounds, options, legend);
}

std::string render_bars(const std::vector<Bar>& bars, int width,
                        const std::string& unit) {
  double max_value = 0.0;
  std::size_t label_width = 0;
  for (const auto& b : bars) {
    max_value = std::max(max_value, b.value);
    label_width = std::max(label_width, b.label.size());
  }
  if (max_value <= 0.0) max_value = 1.0;
  std::ostringstream out;
  for (const auto& b : bars) {
    const int len =
        static_cast<int>(std::round(b.value / max_value * width));
    out << "  " << b.label << std::string(label_width - b.label.size(), ' ')
        << " |" << std::string(static_cast<std::size_t>(len), '#')
        << std::string(static_cast<std::size_t>(width - len), ' ') << "| "
        << format_tick(b.value);
    if (!unit.empty()) out << ' ' << unit;
    out << '\n';
  }
  return out.str();
}

}  // namespace conscale
