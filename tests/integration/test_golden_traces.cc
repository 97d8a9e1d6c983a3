/**
 * @file
 * Golden-trace regression suite (ctest -L golden): the --trace-json
 * output of every catalog configuration in src/core/goldens.cc is
 * pinned byte-for-byte in tests/goldens/<id>.json. Any drift fails
 * with a field-level diff (path, golden value, current value) and an
 * absolute-zero tolerance on every cycle count.
 *
 * Intentional changes: rebuild and run `tools/regen_goldens`, review
 * the diff, and commit the regenerated files (tests/goldens/README.md).
 */
#include "core/goldens.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "support/minijson.h"

namespace flat {

/** Names a catalog entry by its id. GoogleTest's fallback printer
 *  dumps the raw object bytes, heap pointers included, into each
 *  listed test name, which then differs from one build to the next. */
void
PrintTo(const GoldenConfig& config, std::ostream* os)
{
    *os << config.id;
}

namespace {

std::string
golden_dir()
{
#ifdef FLAT_GOLDEN_DIR
    return FLAT_GOLDEN_DIR;
#else
    return "tests/goldens";
#endif
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Field-level diff: every divergence is its own failure line. */
void
expect_same_document(const flat::testing::FlatJson& golden,
                     const flat::testing::FlatJson& current,
                     const std::string& id)
{
    for (const auto& [path, value] : golden) {
        const auto it = current.find(path);
        if (it == current.end()) {
            ADD_FAILURE() << id << ": field '" << path
                          << "' vanished (golden value " << value << ")";
            continue;
        }
        EXPECT_EQ(it->second, value)
            << id << ": field '" << path << "' drifted: golden " << value
            << " != current " << it->second;
    }
    for (const auto& [path, value] : current) {
        if (golden.find(path) == golden.end()) {
            ADD_FAILURE() << id << ": new field '" << path << "' = "
                          << value
                          << " is not in the golden (regen required?)";
        }
    }
}

class GoldenTrace : public ::testing::TestWithParam<GoldenConfig>
{
};

TEST_P(GoldenTrace, MatchesPinnedOutput)
{
    const GoldenConfig& config = GetParam();
    const std::string path = golden_dir() + "/" + config.id + ".json";
    std::string golden_text = read_file(path);
    ASSERT_FALSE(golden_text.empty())
        << "missing golden " << path
        << " — run tools/regen_goldens and commit the result";
    // regen_goldens terminates the file with one newline; the
    // comparison is over the JSON bytes proper.
    if (golden_text.back() == '\n') {
        golden_text.pop_back();
    }

    const std::string current_text = golden_trace_json(config);

    // Fast path: byte-identical documents need no parsing.
    if (current_text == golden_text) {
        return;
    }

    // Slow path: emit one failure per drifted field.
    flat::testing::FlatJson golden;
    flat::testing::FlatJson current;
    ASSERT_NO_THROW(golden = flat::testing::parse_flat_json(golden_text))
        << config.id << ": golden file is not valid JSON";
    ASSERT_NO_THROW(current =
                        flat::testing::parse_flat_json(current_text))
        << config.id << ": generated trace is not valid JSON";
    expect_same_document(golden, current, config.id);

    // Belt and braces: even if the field walk found nothing (it cannot
    // if the bytes differ and both documents parse), fail loudly.
    ADD_FAILURE() << config.id
                  << ": trace bytes differ from the pinned golden";
}

TEST(GoldenCatalog, IdsAreUniqueAndStable)
{
    const auto& configs = golden_configs();
    ASSERT_GE(configs.size(), 8u);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        for (std::size_t j = i + 1; j < configs.size(); ++j) {
            EXPECT_NE(configs[i].id, configs[j].id);
        }
    }
}

TEST(GoldenCatalog, GenerationIsDeterministic)
{
    // Two in-process generations must agree byte-for-byte; anything
    // else would make the suite flaky by construction.
    const GoldenConfig& config = golden_configs().front();
    EXPECT_EQ(golden_trace_json(config), golden_trace_json(config));
}

TEST(GoldenCatalog, CycleFieldsParseExactly)
{
    // The shortest-round-trip emitter guarantees that re-parsing a
    // cycles token yields the identical double — the absolute-zero
    // tolerance the golden comparison relies on.
    const std::string text =
        golden_trace_json(golden_configs().front());
    const flat::testing::FlatJson doc =
        flat::testing::parse_flat_json(text);
    bool saw_cycles = false;
    for (const auto& [path, token] : doc) {
        if (path.find("cycles") == std::string::npos ||
            token.front() == '"') {
            continue;
        }
        saw_cycles = true;
        const double value = std::stod(token);
        char buf[64];
        for (int precision = 15; precision <= 17; ++precision) {
            std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
            if (std::strtod(buf, nullptr) == value) {
                break;
            }
        }
        EXPECT_EQ(std::string(buf), token) << path;
    }
    EXPECT_TRUE(saw_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, GoldenTrace, ::testing::ValuesIn(golden_configs()),
    [](const ::testing::TestParamInfo<GoldenConfig>& info) {
        std::string name = info.param.id;
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace flat
