// Table/CSV rendering and the ASCII plotting used by bench output.
#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/ascii_plot.h"

namespace bdlfi::util {
namespace {

TEST(Table, TextRenderingAligned) {
  Table t({"p", "error"});
  t.row().col(1e-3).col(12.5);
  t.row().col(std::string("x")).col(std::string("yy"));
  const std::string text = t.to_text();
  EXPECT_NE(text.find("| p "), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("0.001"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "note"});
  t.row().col(std::string("a,b")).col(std::string("say \"hi\""));
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvRoundtripToFile) {
  Table t({"a", "b"});
  t.row().col(std::size_t{1}).col(2.5);
  const std::string path = "/tmp/bdlfi_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2.5");
  std::remove(path.c_str());
}

TEST(Table, RowWidthMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(FormatDouble, UsesG6) {
  EXPECT_EQ(format_double(0.001), "0.001");
  EXPECT_EQ(format_double(123456789.0), "1.23457e+08");
}

TEST(AsciiPlot, RendersSeriesAndLabels) {
  Series s;
  s.name = "mean error";
  s.glyph = '*';
  for (int i = 0; i < 20; ++i) {
    s.xs.push_back(i);
    s.ys.push_back(i * i);
  }
  PlotOptions opt{.x_label = "x", .y_label = "y", .title = "test plot"};
  const std::string art = render_plot({s}, opt);
  EXPECT_NE(art.find("test plot"), std::string::npos);
  EXPECT_NE(art.find('*'), std::string::npos);
  EXPECT_NE(art.find("mean error"), std::string::npos);
}

TEST(AsciiPlot, LogAxesHandlePositiveData) {
  Series s;
  s.name = "sweep";
  for (double p = 1e-5; p <= 1e-1; p *= 10) {
    s.xs.push_back(p);
    s.ys.push_back(1.0 / p);
  }
  PlotOptions opt;
  opt.log_x = true;
  opt.log_y = true;
  const std::string art = render_plot({s}, opt);
  EXPECT_FALSE(art.empty());
}

TEST(AsciiPlot, ConstantSeriesDoesNotDivideByZero) {
  Series s;
  s.name = "flat";
  s.xs = {1.0, 2.0, 3.0};
  s.ys = {5.0, 5.0, 5.0};
  const std::string art = render_plot({s}, PlotOptions{});
  EXPECT_FALSE(art.empty());
}

TEST(Heatmap, RendersWithAutoScale) {
  std::vector<double> grid(6 * 4);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = static_cast<double>(i);
  }
  const std::string art = render_heatmap(grid, 4, 6, 0, 0, "map");
  EXPECT_NE(art.find("map"), std::string::npos);
  EXPECT_NE(art.find('@'), std::string::npos);  // max cell uses top glyph
}

TEST(Heatmap, UniformGridIsHandled) {
  std::vector<double> grid(12, 3.0);
  const std::string art = render_heatmap(grid, 3, 4);
  EXPECT_FALSE(art.empty());
}

}  // namespace
}  // namespace bdlfi::util
