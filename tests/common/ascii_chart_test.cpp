#include "common/ascii_chart.h"
#include <limits>

#include <gtest/gtest.h>

namespace conscale {
namespace {

Series make_series(const std::string& name) {
  Series s;
  s.name = name;
  for (int i = 0; i <= 10; ++i) {
    s.x.push_back(i);
    s.y.push_back(i * i);
  }
  return s;
}

TEST(AsciiChart, LinesRenderWithLegendAndLabels) {
  ChartOptions options;
  options.x_label = "time";
  options.y_label = "value";
  const std::string out = render_lines({make_series("parabola")}, options);
  EXPECT_NE(out.find("parabola"), std::string::npos);
  EXPECT_NE(out.find("time"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiChart, EmptySeriesHandled) {
  EXPECT_EQ(render_lines({}, {}), "(no data)\n");
  Series empty;
  empty.name = "empty";
  EXPECT_EQ(render_scatter(empty, {}), "(no data)\n");
}

TEST(AsciiChart, MultipleSeriesGetDistinctGlyphs) {
  Series a = make_series("first");
  Series b = make_series("second");
  for (auto& y : b.y) y += 5.0;
  ChartOptions options;
  const std::string out = render_lines({a, b}, options);
  EXPECT_NE(out.find("[*] first"), std::string::npos);
  EXPECT_NE(out.find("[+] second"), std::string::npos);
}

TEST(AsciiChart, NonFiniteValuesSkipped) {
  Series s;
  s.name = "gappy";
  s.x = {0.0, 1.0, 2.0};
  s.y = {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
  const std::string out = render_lines({s}, {});
  EXPECT_NE(out.find('*'), std::string::npos);  // finite points still plotted
}

TEST(AsciiChart, ScatterShowsSampleCount) {
  Series s;
  s.name = "cloud";
  for (int i = 0; i < 100; ++i) {
    s.x.push_back(i % 10);
    s.y.push_back(i / 10);
  }
  const std::string out = render_scatter(s, {});
  EXPECT_NE(out.find("n=100"), std::string::npos);
}

TEST(AsciiChart, FixedYMaxRespected) {
  ChartOptions options;
  options.y_max = 1000.0;
  const std::string out = render_lines({make_series("s")}, options);
  EXPECT_NE(out.find("1000"), std::string::npos);
}

}  // namespace
}  // namespace conscale
