// Binary columnar extent encoding for latency records.
//
// The CSV extents the paper describes (§6.2) are schema-on-read text; at
// paper scale they cost ~90 bytes/record and a full text parse per scan.
// This codec stores one upload batch as a self-delimiting binary block:
//
//   magic 0xC1 | varint row_count
//   varint dict_size, dict_size x u32-LE IPs   (src+dst dictionary, in
//                                               first-appearance order)
//   row_count x varint src dict index
//   row_count x varint dst dict index
//   timestamps: zigzag varint, first absolute then deltas
//   row_count x varint src_port, row_count x varint dst_port
//   row_count x flags byte (kind:2 | qos:1 | success:1 | payload_success:1)
//   row_count x zigzag varint rtt
//   row_count x zigzag varint payload_rtt
//   row_count x varint payload_bytes
//
// Blocks are self-delimiting so multiple appends concatenated into one
// Cosmos extent decode with a loop, mirroring how CSV batches concatenate.
// Decoded output is column-major (RecordColumns), so scans can filter on
// the contiguous timestamp array without materializing rows.
//
// The decoder treats input as untrusted (extents cross a process/disk
// boundary via cosmos_io): every count is bounded against the remaining
// bytes before any allocation, and a malformed block reports its lost rows
// through DecodeStats instead of silently truncating.
#pragma once

#include <string>
#include <string_view>

#include "agent/record_columns.h"
#include "dsa/cosmos.h"

namespace pingmesh::dsa {

/// Encode `batch` as one binary block.
std::string encode_columnar(const agent::RecordColumns& batch);

/// Decode one block starting at data[pos]; appends rows to `out` and
/// advances pos past the block. Returns false when the block is malformed
/// (pos then points at the failure and the caller should stop; claimed-but-
/// unrecovered rows are counted into stats->rows_dropped).
bool decode_columnar_block(std::string_view data, std::size_t& pos,
                           agent::RecordColumns& out,
                           agent::DecodeStats* stats = nullptr);

/// Decode a whole extent payload (a concatenation of blocks).
agent::RecordColumns decode_columnar(std::string_view data,
                                     agent::DecodeStats* stats = nullptr);

/// Decode an extent of either encoding into columns — the single entry
/// point for the scan paths (scan_cache, SCOPE EXTRACT, pingmeshctl).
agent::RecordColumns decode_extent(const Extent& e,
                                   agent::DecodeStats* stats = nullptr);

}  // namespace pingmesh::dsa
