// Tabular output for experiment harnesses: aligned console rendering plus
// CSV export, so every figure/table bench prints human-readable rows and
// can also dump machine-readable series for plotting.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace cosm {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Appends a row.  Rows shorter than the header are padded with "".
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }

  // Renders the table with aligned columns, a title line, and a rule.
  void print(std::ostream& os, const std::string& title = "") const;

  // Writes RFC-4180-style CSV (quotes cells containing comma/quote/newline).
  void write_csv(std::ostream& os) const;
  void write_csv_file(const std::string& path) const;

  // Formatting helpers used by every bench target.
  static std::string num(double value, int precision = 4);
  static std::string percent(double fraction, int precision = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cosm
