#pragma once
// Content identity and file hygiene shared by the on-disk stores.
//
// crc32 guards every canonical-cache entry (service/canon_cache.h);
// netlist_content_hash keys the service's crash quarantine and perfbench's
// mutant dedupe; ensure_directory vets a store directory before the first
// write, so a bad path is one clear kInvalidArgument rather than a cryptic
// open error later.

#include <cstddef>
#include <cstdint>
#include <string>

#include "circuit/netlist.h"
#include "util/status.h"

namespace gfa::worker {

/// CRC-32 (IEEE 802.3, reflected) of `n` bytes.
std::uint32_t crc32(const void* data, std::size_t n);

/// FNV-1a content hash over everything that determines a circuit's function
/// and its RATO order: gate types, fanins, net names, word declarations, and
/// outputs. Equal hashes mean the same netlist, net for net.
std::uint64_t netlist_content_hash(const Netlist& netlist);

/// Makes sure `dir` exists and is writable, creating the final path component
/// if needed. A missing parent, a non-directory in the way, or a directory
/// this process cannot write into are all kInvalidArgument with the concrete
/// reason — callers surface that instead of the cryptic open error a later
/// save would produce.
Status ensure_directory(const std::string& dir);

}  // namespace gfa::worker
