// katric::JsonWriter — the one JSON emitter every bench artifact and CI
// gate reads back. The edge cases that matter: string escaping (quotes,
// backslashes, control characters must produce RFC 8259-clean output),
// array-valued fields, empty documents, the Report phase arrays, and a
// write that fails after the file opened.

#include "report.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "net/metrics.hpp"
#include "util/assert.hpp"

namespace katric {
namespace {

TEST(JsonWriter, EmptyDocumentIsAnEmptyArray) {
    JsonWriter json;
    EXPECT_EQ(json.to_string(), "[\n]\n");
}

TEST(JsonWriter, RowWithNoFieldsIsAnEmptyObject) {
    JsonWriter json;
    json.begin_row();
    EXPECT_EQ(json.to_string(), "[\n  {}\n]\n");
}

TEST(JsonWriter, ScalarFieldShapes) {
    JsonWriter json;
    json.begin_row()
        .field("s", std::string("x"))
        .field("d", 1.5)
        .field("u", std::uint64_t{7})
        .field("i", std::int64_t{-7});
    const auto rendered = json.to_string();
    EXPECT_NE(rendered.find("\"s\": \"x\""), std::string::npos);
    EXPECT_NE(rendered.find("\"d\": 1.5"), std::string::npos);
    EXPECT_NE(rendered.find("\"u\": 7"), std::string::npos);
    EXPECT_NE(rendered.find("\"i\": -7"), std::string::npos);
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControls) {
    JsonWriter json;
    json.begin_row().field("k", std::string("a\"b\\c\nd\te\rf\bg\fh"));
    const auto rendered = json.to_string();
    EXPECT_NE(rendered.find(R"(a\"b\\c\nd\te\rf\bg\fh)"), std::string::npos);
}

TEST(JsonWriter, EscapesBareControlCharactersAsUnicode) {
    JsonWriter json;
    json.begin_row().field("k", std::string("a\x01" "b\x1f"));
    const auto rendered = json.to_string();
    EXPECT_NE(rendered.find(R"(a\u0001b\u001f)"), std::string::npos);
}

TEST(JsonWriter, DoublePrecisionSurvivesRoundTrip) {
    JsonWriter json;
    json.begin_row().field("v", 0.1234567890123456789);
    const auto rendered = json.to_string();
    const auto pos = rendered.find("\"v\": ");
    ASSERT_NE(pos, std::string::npos);
    const double parsed = std::stod(rendered.substr(pos + 5));
    EXPECT_DOUBLE_EQ(parsed, 0.1234567890123456789);
}

TEST(JsonWriter, ArrayFields) {
    const std::vector<std::string> names = {"plain", "with \"quote\"", ""};
    const std::vector<double> seconds = {0.5, 1.25};
    const std::vector<std::uint64_t> counts = {1, 2, 3};
    JsonWriter json;
    json.begin_row()
        .field("names", std::span<const std::string>(names))
        .field("seconds", std::span<const double>(seconds))
        .field("counts", std::span<const std::uint64_t>(counts));
    const auto rendered = json.to_string();
    EXPECT_NE(rendered.find(R"("names": ["plain", "with \"quote\"", ""])"),
              std::string::npos);
    EXPECT_NE(rendered.find(R"("seconds": [0.5, 1.25])"), std::string::npos);
    EXPECT_NE(rendered.find(R"("counts": [1, 2, 3])"), std::string::npos);
}

TEST(JsonWriter, EmptyArrayFields) {
    JsonWriter json;
    json.begin_row()
        .field("names", std::span<const std::string>())
        .field("values", std::span<const double>());
    const auto rendered = json.to_string();
    EXPECT_NE(rendered.find("\"names\": []"), std::string::npos);
    EXPECT_NE(rendered.find("\"values\": []"), std::string::npos);
}

TEST(JsonWriter, MultipleRowsSeparatedByCommas) {
    JsonWriter json;
    json.begin_row().field("a", std::uint64_t{1});
    json.begin_row().field("a", std::uint64_t{2});
    EXPECT_EQ(json.to_string(), "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n");
}

TEST(JsonWriter, WriteFailureThrows) {
    // /dev/full opens fine and fails every write, like a full disk.
    if (!std::filesystem::exists("/dev/full")) { GTEST_SKIP() << "no /dev/full"; }
    JsonWriter json;
    json.begin_row().field("a", std::uint64_t{1});
    EXPECT_THROW(json.write("/dev/full"), assertion_error);
}

TEST(ReportJson, DefaultReportOmitsPhaseArrays) {
    const Report report;
    const auto rendered = report.to_json();
    EXPECT_NE(rendered.find("\"query\": \"count\""), std::string::npos);
    EXPECT_EQ(rendered.find("phase_names"), std::string::npos);
    EXPECT_TRUE(report.phase_table().empty());
}

TEST(ReportJson, PhasesEmitParallelArraysAndTable) {
    Report report;
    report.phases.push_back(net::PhaseAgg{"preprocessing", 0.5, 3, 10, 100});
    report.phases.push_back(net::PhaseAgg{"local", 0.25, 1, 0, 0});
    const auto rendered = report.to_json();
    EXPECT_NE(rendered.find(R"("phase_names": ["preprocessing", "local"])"),
              std::string::npos);
    EXPECT_NE(rendered.find("\"phase_seconds\": [0.5, 0.25]"), std::string::npos);
    EXPECT_NE(rendered.find("\"phase_supersteps\": [3, 1]"), std::string::npos);
    EXPECT_NE(rendered.find("\"phase_words_sent\": [100, 0]"), std::string::npos);

    const auto table = report.phase_table();
    EXPECT_NE(table.find("preprocessing"), std::string::npos);
    EXPECT_NE(table.find("local"), std::string::npos);
    EXPECT_NE(table.find("supersteps"), std::string::npos);
}

}  // namespace
}  // namespace katric
