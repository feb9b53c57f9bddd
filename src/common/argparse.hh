/**
 * @file
 * Shared CLI argument conventions for every icicle tool.
 *
 * All five binaries (icicle-lint/sweep/trace/prove and icicled)
 * promise the same contract, pinned by tests/test_cli.cc:
 *
 *   --help / -h   usage text on *stdout*, exit 0
 *   unknown flag  diagnostic + usage text on *stderr*, exit 2
 *   missing value diagnostic + usage text on *stderr*, exit 2
 *
 * The helpers here are the single place that encodes "stdout means
 * success, stderr means usage error" so no tool can drift (one
 * historically printed --help to stderr). Tools keep their own flag
 * loops — grids, subcommands, and positionals differ too much for a
 * declarative table — but route every help/error exit through this.
 */

#ifndef ICICLE_COMMON_ARGPARSE_HH
#define ICICLE_COMMON_ARGPARSE_HH

#include <cstdio>
#include <string>
#include <vector>

namespace icicle
{
namespace cli
{

/** The two help spellings every tool accepts. */
bool isHelp(const std::string &arg);

/**
 * Print the usage text to `out` and return the canonical exit code
 * for that destination: 0 for stdout (--help), 2 for stderr (usage
 * error). Tools `return cli::usageExit(...)` directly from main.
 */
int usageExit(FILE *out, const char *text);

/** "unknown option: ARG" + usage on stderr; returns 2. */
int unknownOption(const std::string &arg, const char *text);

/** "FLAG needs a value" + usage on stderr; returns 2. */
int missingValue(const std::string &flag, const char *text);

/**
 * Split a comma-separated flag value ("a, b,c") into its items,
 * trimming surrounding spaces and tabs and dropping empty items.
 */
std::vector<std::string> splitList(const std::string &text);

} // namespace cli
} // namespace icicle

#endif // ICICLE_COMMON_ARGPARSE_HH
