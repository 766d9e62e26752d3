#include "graph/io.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graph/builder.hpp"
#include "support/temp_dir.hpp"
#include "support/test_graphs.hpp"

namespace katric::graph {
namespace {

class IoTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = katric::test::unique_temp_dir("katric_io_test");
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
    const CsrGraph g = katric::test::bowtie_graph();
    const auto path = (dir_ / "bowtie.txt").string();
    write_edge_list_text(to_edge_list(g), path);
    const CsrGraph back = build_undirected(read_edge_list_text(path), g.num_vertices());
    EXPECT_EQ(back.offsets(), g.offsets());
    EXPECT_EQ(back.targets(), g.targets());
}

TEST_F(IoTest, TextSkipsCommentsAndInterpretsDirectedAsUndirected) {
    const auto path = (dir_ / "comments.txt").string();
    {
        std::ofstream out(path);
        out << "# SNAP-style comment\n% KONECT-style comment\n0 1\n1 0\n2 1\n";
    }
    const auto edges = read_edge_list_text(path);
    const CsrGraph g = build_undirected(edges);
    EXPECT_EQ(g.num_edges(), 2u);  // 0-1 deduped, 1-2
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 2));
}

TEST_F(IoTest, BinaryRoundTrip) {
    const CsrGraph g = gen::generate_rmat(8, 512, 5);
    const auto path = (dir_ / "g.ktrb").string();
    write_binary(g, path);
    const CsrGraph back = read_binary(path);
    EXPECT_EQ(back.num_vertices(), g.num_vertices());
    EXPECT_EQ(back.offsets(), g.offsets());
    EXPECT_EQ(back.targets(), g.targets());
}

TEST_F(IoTest, BinaryRejectsWrongMagic) {
    const auto path = (dir_ / "junk.ktrb").string();
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOPEnope";
    }
    EXPECT_THROW(read_binary(path), katric::assertion_error);
}

TEST_F(IoTest, MissingFileThrows) {
    EXPECT_THROW(read_edge_list_text((dir_ / "missing.txt").string()),
                 katric::assertion_error);
    EXPECT_THROW(read_binary((dir_ / "missing.ktrb").string()), katric::assertion_error);
}

}  // namespace
}  // namespace katric::graph

namespace katric::graph {
namespace {

class MetisIoTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = katric::test::unique_temp_dir("katric_metis_test");
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(MetisIoTest, RoundTrip) {
    const CsrGraph g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 3);
    const auto path = (dir_ / "g.metis").string();
    write_metis(g, path);
    const CsrGraph back = read_metis(path);
    EXPECT_EQ(back.num_vertices(), g.num_vertices());
    EXPECT_EQ(back.offsets(), g.offsets());
    EXPECT_EQ(back.targets(), g.targets());
}

TEST_F(MetisIoTest, ReadsHandWrittenFile) {
    const auto path = (dir_ / "hand.metis").string();
    {
        std::ofstream out(path);
        // Triangle plus pendant vertex (1-indexed METIS adjacency).
        out << "% comment line\n4 4\n2 3\n1 3\n1 2 4\n3\n";
    }
    const CsrGraph g = read_metis(path);
    EXPECT_EQ(g.num_vertices(), 4u);
    EXPECT_EQ(g.num_edges(), 4u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(2, 3));
    EXPECT_FALSE(g.has_edge(0, 3));
}

TEST_F(MetisIoTest, RejectsBadHeaderAndTruncation) {
    const auto bad_header = (dir_ / "bad.metis").string();
    {
        std::ofstream out(bad_header);
        out << "notanumber\n";
    }
    EXPECT_THROW(read_metis(bad_header), katric::assertion_error);

    const auto truncated = (dir_ / "short.metis").string();
    {
        std::ofstream out(truncated);
        out << "3 2\n2\n";  // promises 3 vertex lines, has 1
    }
    EXPECT_THROW(read_metis(truncated), katric::assertion_error);
}

TEST_F(MetisIoTest, EdgeCountMismatchRejected) {
    const auto path = (dir_ / "mismatch.metis").string();
    {
        std::ofstream out(path);
        out << "2 5\n2\n1\n";  // claims 5 edges, contains 1
    }
    EXPECT_THROW(read_metis(path), katric::assertion_error);
}

}  // namespace
}  // namespace katric::graph
