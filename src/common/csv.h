// Small CSV writer used by the figure/table harnesses to dump the series the
// paper plots, so they can be re-plotted with gnuplot/matplotlib.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace conscale {

/// One numeric CSV cell as CsvWriter::row writes it: printf's %.6g.
std::string format_cell(double value);

/// Writes RFC-4180-ish CSV (quotes fields containing separators/quotes).
/// The writer owns the stream; destruction flushes.
class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);
  /// Writes to an already-open stream owned by the caller.
  explicit CsvWriter(std::ostream& out);

  void header(std::initializer_list<std::string_view> columns);
  void header(const std::vector<std::string>& columns);

  /// Appends one row. Values are formatted with format_cell.
  void row(std::initializer_list<double> values);
  void row(const std::vector<double>& values);
  /// Mixed row: already-formatted cells.
  void raw_row(const std::vector<std::string>& cells);

  std::size_t rows_written() const { return rows_; }

 private:
  void write_cells(const std::vector<std::string>& cells);
  static std::string escape(std::string_view cell);

  std::ofstream file_;
  std::ostream* out_;
  std::size_t rows_ = 0;
};

}  // namespace conscale
