#include "report.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/assert.hpp"
#include "util/table.hpp"

namespace katric {

namespace {

/// JSON string escaping: quotes, backslashes, and — per RFC 8259 — every
/// control character (named escapes for the common ones, \u00XX otherwise).
std::string escaped(const std::string& value) {
    std::ostringstream out;
    for (const char c : value) {
        switch (c) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\t': out << "\\t"; break;
            case '\r': out << "\\r"; break;
            case '\b': out << "\\b"; break;
            case '\f': out << "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
                        << static_cast<int>(static_cast<unsigned char>(c)) << std::dec
                        << std::setfill(' ');
                } else {
                    out << c;
                }
        }
    }
    return out.str();
}

std::string rendered_double(double value) {
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
}

}  // namespace

std::string query_name(Query query) {
    switch (query) {
        case Query::kCount: return "count";
        case Query::kLcc: return "lcc";
        case Query::kEnumerate: return "enumerate";
        case Query::kApprox: return "approx";
        case Query::kStream: return "stream";
    }
    return "unknown";
}

std::string Report::to_json() const {
    JsonWriter writer;
    writer.begin_row().report_fields(*this);
    return writer.to_string();
}

std::string Report::phase_table() const {
    if (phases.empty()) { return ""; }
    Table table({"phase", "seconds", "supersteps", "messages", "words"});
    for (const auto& phase : phases) {
        table.row()
            .cell(phase.name)
            .cell(phase.seconds, 6)
            .cell(static_cast<std::uint64_t>(phase.supersteps))
            .cell(phase.messages_sent)
            .cell(phase.words_sent);
    }
    std::ostringstream out;
    table.print(out);
    return out.str();
}

JsonWriter& JsonWriter::field(const std::string& key, const std::string& value) {
    return raw(key, '"' + escaped(value) + '"');
}

JsonWriter& JsonWriter::field(const std::string& key, double value) {
    return raw(key, rendered_double(value));
}

JsonWriter& JsonWriter::field(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
}

JsonWriter& JsonWriter::field(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
}

namespace {

template <typename T, typename Render>
std::string rendered_array(std::span<const T> values, const Render& render) {
    std::ostringstream out;
    out << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) { out << ", "; }
        out << render(values[i]);
    }
    out << ']';
    return out.str();
}

}  // namespace

JsonWriter& JsonWriter::field(const std::string& key,
                              std::span<const std::string> values) {
    return raw(key, rendered_array(values, [](const std::string& v) {
                   return '"' + escaped(v) + '"';
               }));
}

JsonWriter& JsonWriter::field(const std::string& key, std::span<const double> values) {
    return raw(key, rendered_array(values, rendered_double));
}

JsonWriter& JsonWriter::field(const std::string& key,
                              std::span<const std::uint64_t> values) {
    return raw(key, rendered_array(values,
                                   [](std::uint64_t v) { return std::to_string(v); }));
}

JsonWriter& JsonWriter::report_fields(const Report& report) {
    field("query", query_name(report.query));
    field("algorithm", core::algorithm_name(report.algorithm));
    field("ok", std::uint64_t{report.ok() ? 1u : 0u});
    if (!report.error.ok()) { field("error", report.error.message); }
    field("oom", std::uint64_t{report.count.oom ? 1u : 0u});
    field("triangles", report.count.triangles);
    field("total_time", report.count.total_time);
    field("preprocessing_time", report.count.preprocessing_time);
    field("local_time", report.count.local_time);
    field("contraction_time", report.count.contraction_time);
    field("global_time", report.count.global_time);
    field("reduce_time", report.count.reduce_time);
    field("max_messages_sent", report.count.max_messages_sent);
    field("max_words_sent", report.count.max_words_sent);
    field("total_messages_sent", report.count.total_messages_sent);
    field("total_words_sent", report.count.total_words_sent);
    field("max_peak_buffer_words", report.count.max_peak_buffer_words);
    field("local_phase_triangles", report.count.local_phase_triangles);
    field("global_phase_triangles", report.count.global_phase_triangles);
    field("total_compute_ops", report.total_compute_ops);
    field("max_compute_ops", report.max_compute_ops);
    field("reused_preprocessing", std::uint64_t{report.reused_preprocessing ? 1u : 0u});
    field("hardened", std::uint64_t{report.hardened ? 1u : 0u});
    if (report.hardened) {
        field("degraded", std::uint64_t{report.degraded ? 1u : 0u});
        field("frames_sent", report.faults.frames_sent);
        field("faults_injected", report.faults.injected_total());
        field("corrupt_detected", report.faults.corrupt_detected);
        field("duplicates_suppressed", report.faults.duplicates_suppressed);
        field("retransmits", report.faults.retransmits);
    }
    if (!report.phases.empty()) {
        // Per-phase breakdown as parallel arrays — fig7's sections, one
        // entry per phase group, same index across the four arrays.
        std::vector<std::string> names;
        std::vector<double> seconds;
        std::vector<std::uint64_t> supersteps;
        std::vector<std::uint64_t> words;
        for (const auto& phase : report.phases) {
            names.push_back(phase.name);
            seconds.push_back(phase.seconds);
            supersteps.push_back(phase.supersteps);
            words.push_back(phase.words_sent);
        }
        field("phase_names", std::span<const std::string>(names));
        field("phase_seconds", std::span<const double>(seconds));
        field("phase_supersteps", std::span<const std::uint64_t>(supersteps));
        field("phase_words_sent", std::span<const std::uint64_t>(words));
    }
    switch (report.query) {
        case Query::kCount: break;
        case Query::kLcc: {
            field("postprocess_time", report.postprocess_time);
            field("lcc_vertices", static_cast<std::uint64_t>(report.lcc.size()));
            break;
        }
        case Query::kEnumerate: {
            field("enumerated", static_cast<std::uint64_t>(report.triangles.size()));
            break;
        }
        case Query::kApprox: {
            field("estimated_triangles", report.estimated_triangles);
            field("exact_type12", report.exact_type12);
            field("estimated_type3", report.estimated_type3);
            break;
        }
        case Query::kStream: {
            field("initial_triangles", report.initial.triangles);
            field("batches", static_cast<std::uint64_t>(report.batches.size()));
            field("stream_seconds", report.stream_seconds);
            break;
        }
    }
    return *this;
}

std::string JsonWriter::to_string() const {
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        out << "  {";
        for (std::size_t j = 0; j < rows_[i].size(); ++j) {
            out << '"' << rows_[i][j].first << "\": " << rows_[i][j].second;
            if (j + 1 < rows_[i].size()) { out << ", "; }
        }
        out << (i + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "]\n";
    return out.str();
}

void JsonWriter::write(const std::string& path) const {
    if (path.empty()) { return; }
    std::ofstream out(path);
    KATRIC_ASSERT_MSG(out.good(), "cannot open JSON output path " << path);
    out << to_string();
    // A full disk shows only once the buffer reaches the file.
    out.flush();
    KATRIC_ASSERT_MSG(out.good(), "cannot write JSON output path " << path);
}

JsonWriter& JsonWriter::raw(const std::string& key, std::string rendered) {
    KATRIC_ASSERT_MSG(!rows_.empty(), "field() before begin_row()");
    rows_.back().emplace_back(key, std::move(rendered));
    return *this;
}

}  // namespace katric
