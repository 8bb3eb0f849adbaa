// CSV series and aligned-table printing. Figure benches print one CSV block
// per series (replot-friendly); in-text table rows are printed as aligned
// text prefixed with "== Table:".
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace fedl {

// A named column of doubles; all columns in a table must share a length.
struct CsvColumn {
  std::string name;
  std::vector<double> values;
};

// Columnar series writer: header row then comma-separated data rows.
class CsvTable {
 public:
  // Creates the column and returns its index.
  std::size_t add_column(std::string name);
  void append(std::size_t column, double value);
  // Appends one value per column, in column order.
  void append_row(const std::vector<double>& row);

  std::size_t num_rows() const;
  const CsvColumn& column(std::size_t i) const;

  void write(std::ostream& os) const;

 private:
  std::vector<CsvColumn> columns_;
};

// Pretty text table with left-aligned string cells, for in-text table rows.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  void write(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Format a double compactly (up to 4 significant decimals, no trailing zeros).
std::string format_num(double v);

}  // namespace fedl
