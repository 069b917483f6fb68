#ifndef SPARDL_METRICS_TABLE_H_
#define SPARDL_METRICS_TABLE_H_

#include <string>
#include <vector>

namespace spardl {

/// Minimal ASCII table printer for bench output (paper-style rows).
///
/// ```
/// TablePrinter t({"method", "comm (s)", "speedup"});
/// t.AddRow({"SparDL", "0.031", "1.6x"});
/// std::cout << t.ToString();
/// ```
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Renders with column alignment and a header separator.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace spardl

#endif  // SPARDL_METRICS_TABLE_H_
