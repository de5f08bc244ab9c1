#pragma once

/// \file file.h
/// Whole-file reads and writes for every exporter (metrics, traces,
/// profiles, reports, baselines). Append-mode streams (the access log, the
/// bench history ledger) keep their own FILE*.

#include <string>
#include <string_view>

namespace smart::util {

/// Reads the whole file at `path` into `*out` (replacing its content).
/// Returns false when the file cannot be opened or read; errno is left as
/// the failing call set it.
bool read_file(const std::string& path, std::string* out);

/// Replaces the file at `path` with `content` atomically: the bytes go to
/// `path + ".tmp"`, which is checked on write and close and then renamed
/// over `path`. A reader (or a crash) sees the old file or the new one,
/// never a torn one. On any failure the tmp file is removed, the old file
/// is left untouched, and the call returns false.
bool write_file(const std::string& path, std::string_view content);

}  // namespace smart::util
