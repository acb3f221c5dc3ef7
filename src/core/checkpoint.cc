#include "core/checkpoint.h"

#include <sstream>
#include <utility>

namespace olapdc {

std::string DimsatCheckpoint::Serialize() const {
  std::ostringstream out;
  out << "dimsat-checkpoint v1\n";
  out << "root " << root << " categories " << num_categories << " frames "
      << frames.size() << "\n";
  for (const DimsatCheckpointFrame& frame : frames) {
    const std::vector<std::pair<CategoryId, CategoryId>> edges =
        frame.g.Edges();
    out << "frame " << frame.next_mask << " " << frame.depth << " "
        << edges.size();
    for (const auto& [u, v] : edges) out << " " << u << " " << v;
    out << "\n";
  }
  return out.str();
}

uint64_t DimsatCheckpoint::FrameBytes(int num_categories) {
  return sizeof(DimsatCheckpointFrame) - sizeof(Subhierarchy) +
         Subhierarchy::Bytes(num_categories);
}

Result<DimsatCheckpoint> DimsatCheckpoint::Deserialize(
    std::string_view text, int num_categories, MemoryBudget* memory) {
  std::istringstream in{std::string(text)};
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "dimsat-checkpoint" ||
      version != "v1") {
    return Status::ParseError("not a dimsat-checkpoint v1 header");
  }
  DimsatCheckpoint cp;
  std::string kw_root, kw_categories, kw_frames;
  size_t num_frames = 0;
  if (!(in >> kw_root >> cp.root >> kw_categories >> cp.num_categories >>
        kw_frames >> num_frames) ||
      kw_root != "root" || kw_categories != "categories" ||
      kw_frames != "frames") {
    return Status::ParseError("malformed checkpoint summary line");
  }
  if (cp.num_categories != num_categories) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(cp.num_categories) +
        " categories, the schema " + std::to_string(num_categories));
  }
  if (cp.num_categories <= 0 || cp.root < 0 ||
      cp.root >= cp.num_categories) {
    return Status::InvalidArgument("checkpoint root out of range");
  }
  if (num_frames == 0 || num_frames > (size_t{1} << 24)) {
    return Status::ParseError("implausible checkpoint frame count " +
                              std::to_string(num_frames));
  }
  // Nothing is reserved for the frame and edge counts: they are client
  // text, so the vectors grow only with what the token really holds,
  // and each frame is charged as it is read.
  if (memory != nullptr) {
    cp.charge = std::make_shared<MemoryReservation>(memory);
  }
  const uint64_t frame_bytes = FrameBytes(cp.num_categories);
  std::vector<std::pair<CategoryId, CategoryId>> edges;
  for (size_t i = 0; i < num_frames; ++i) {
    std::string kw_frame;
    uint32_t next_mask = 0;
    int depth = 0;
    size_t num_edges = 0;
    if (!(in >> kw_frame >> next_mask >> depth >> num_edges) ||
        kw_frame != "frame" || depth < 0 || num_edges > (size_t{1} << 24)) {
      return Status::ParseError("malformed checkpoint frame " +
                                std::to_string(i));
    }
    edges.clear();
    for (size_t e = 0; e < num_edges; ++e) {
      CategoryId u, v;
      if (!(in >> u >> v)) {
        return Status::ParseError("truncated edge list in frame " +
                                  std::to_string(i));
      }
      edges.emplace_back(u, v);
    }
    if (cp.charge != nullptr) {
      OLAPDC_RETURN_NOT_OK(
          cp.charge->Reserve(frame_bytes, "checkpoint.frame"));
    }
    std::optional<Subhierarchy> g =
        Subhierarchy::FromPartialEdges(cp.num_categories, cp.root, edges);
    if (!g.has_value()) {
      return Status::InvalidArgument(
          "checkpoint frame " + std::to_string(i) +
          " is not a root-reachable partial subhierarchy");
    }
    cp.frames.push_back(DimsatCheckpointFrame{std::move(*g), next_mask, depth});
  }
  return cp;
}

}  // namespace olapdc
