// Terminal rendering of the paper's figures: line charts for timelines
// (Fig 1/5/10/11) and scatter plots for SCT correlation graphs (Fig 6/7).
// The bench binaries print these so a run's output is directly comparable
// to the paper without external plotting.
#pragma once

#include <string>
#include <vector>

namespace conscale {

/// The plot area is 96 columns wide and its y axis starts at 0 (paper
/// style).
struct ChartOptions {
  int height = 18;       ///< plot area rows
  std::string x_label;   ///< axis captions
  std::string y_label;
  double y_max = 0.0;    ///< 0 => auto from data
};

/// One named series of (x, y) points.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Renders one or more line series on a shared axis. Each series gets a
/// distinct glyph; a legend line is appended.
std::string render_lines(const std::vector<Series>& series,
                         const ChartOptions& options);

/// Renders a scatter plot (density shown by character ramp . : * # @).
std::string render_scatter(const Series& points, const ChartOptions& options);

}  // namespace conscale
