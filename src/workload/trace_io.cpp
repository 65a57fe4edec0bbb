#include "workload/trace_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace wrht::workload {

const char* trace_format_name(TraceFormat format) {
  switch (format) {
    case TraceFormat::kJsonl:
      return "jsonl";
    case TraceFormat::kCsv:
      return "csv";
  }
  return "?";
}

std::optional<TraceFormat> parse_trace_format(const std::string& name) {
  if (name == "jsonl") return TraceFormat::kJsonl;
  if (name == "csv") return TraceFormat::kCsv;
  return std::nullopt;
}

std::string format_double_exact(double v) {
  WRHT_REQUIRE(v == v && v <= 1.7976931348623157e308 &&
                   v >= -1.7976931348623157e308,
               "format_double_exact: non-finite value");
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

namespace {

const std::vector<std::string>& csv_columns() {
  static const std::vector<std::string> kColumns = {
      "arrival",  "participants", "payload",  "requested", "min",
      "priority", "pin",          "deadline", "name"};
  return kColumns;
}

std::optional<runtime::SubstratePin> parse_pin(const std::string& name) {
  if (name == "any") return runtime::SubstratePin::kAny;
  if (name == "optical-only") return runtime::SubstratePin::kOpticalOnly;
  if (name == "electrical-only") {
    return runtime::SubstratePin::kElectricalOnly;
  }
  return std::nullopt;
}

std::string participants_cell(const std::vector<topo::NodeId>& participants) {
  std::string cell;
  for (const topo::NodeId node : participants) {
    if (!cell.empty()) cell += ' ';
    cell += std::to_string(node);
  }
  return cell;
}

/// Split one RFC-4180 record into cells (handles quoted cells and ""
/// escapes; a trace writer never emits embedded newlines, so one line is
/// one record).
std::vector<std::string> split_csv(const std::string& line,
                                   std::uint64_t line_number) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"' && cell.empty()) {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  WRHT_REQUIRE(!quoted,
               "TraceReader: unterminated quote on line " << line_number);
  cells.push_back(std::move(cell));
  return cells;
}

runtime::JobSpec spec_from_json(const std::string& line,
                                std::uint64_t line_number) {
  const obs::JsonParseResult parsed = obs::json_parse(line);
  WRHT_REQUIRE(parsed.ok && parsed.value.kind == obs::JsonValue::Kind::kObject,
               "TraceReader: line " << line_number
                                    << " is not a JSON object: "
                                    << parsed.error);
  const obs::JsonValue& v = parsed.value;
  runtime::JobSpec spec;
  const obs::JsonValue* arrival = v.find("arrival");
  const obs::JsonValue* participants = v.find("participants");
  const obs::JsonValue* payload = v.find("payload");
  WRHT_REQUIRE(arrival && participants && payload &&
                   participants->kind == obs::JsonValue::Kind::kArray,
               "TraceReader: line " << line_number
                                    << " is missing arrival / participants / "
                                       "payload");
  spec.arrival = util::Seconds(arrival->number);
  for (const obs::JsonValue& node : participants->array) {
    spec.participants.push_back(static_cast<topo::NodeId>(node.number));
  }
  spec.payload = util::Bytes(static_cast<std::uint64_t>(payload->number));
  if (const obs::JsonValue* f = v.find("requested")) {
    spec.requested_wavelengths = static_cast<std::uint32_t>(f->number);
  }
  if (const obs::JsonValue* f = v.find("min")) {
    spec.min_wavelengths = static_cast<std::uint32_t>(f->number);
  }
  if (const obs::JsonValue* f = v.find("priority")) {
    spec.priority = static_cast<std::int32_t>(f->number);
  }
  if (const obs::JsonValue* f = v.find("pin")) {
    const std::optional<runtime::SubstratePin> pin = parse_pin(f->string);
    WRHT_REQUIRE(pin, "TraceReader: line " << line_number << " names unknown "
                                           << "pin '" << f->string << "'");
    spec.pin = *pin;
  }
  if (const obs::JsonValue* f = v.find("deadline")) {
    spec.deadline = util::Seconds(f->number);
  }
  if (const obs::JsonValue* f = v.find("name")) spec.name = f->string;
  return spec;
}

runtime::JobSpec spec_from_csv(const std::string& line,
                               std::uint64_t line_number) {
  const std::vector<std::string> cells = split_csv(line, line_number);
  WRHT_REQUIRE(cells.size() == csv_columns().size(),
               "TraceReader: line " << line_number << " has " << cells.size()
                                    << " cells, expected "
                                    << csv_columns().size());
  runtime::JobSpec spec;
  spec.arrival = util::Seconds(std::strtod(cells[0].c_str(), nullptr));
  const std::string& nodes = cells[1];
  std::size_t pos = 0;
  while (pos < nodes.size()) {
    char* end = nullptr;
    spec.participants.push_back(static_cast<topo::NodeId>(
        std::strtoul(nodes.c_str() + pos, &end, 10)));
    pos = static_cast<std::size_t>(end - nodes.c_str());
    while (pos < nodes.size() && nodes[pos] == ' ') ++pos;
  }
  spec.payload = util::Bytes(std::strtoull(cells[2].c_str(), nullptr, 10));
  spec.requested_wavelengths =
      static_cast<std::uint32_t>(std::strtoul(cells[3].c_str(), nullptr, 10));
  spec.min_wavelengths =
      static_cast<std::uint32_t>(std::strtoul(cells[4].c_str(), nullptr, 10));
  spec.priority =
      static_cast<std::int32_t>(std::strtol(cells[5].c_str(), nullptr, 10));
  const std::optional<runtime::SubstratePin> pin = parse_pin(cells[6]);
  WRHT_REQUIRE(pin, "TraceReader: line " << line_number << " names unknown "
                                         << "pin '" << cells[6] << "'");
  spec.pin = *pin;
  spec.deadline = util::Seconds(std::strtod(cells[7].c_str(), nullptr));
  spec.name = cells[8];
  return spec;
}

std::optional<runtime::FaultDomain> parse_fault_domain(
    const std::string& name) {
  if (name == "transceiver") return runtime::FaultDomain::kTransceiver;
  if (name == "node") return runtime::FaultDomain::kNode;
  if (name == "tor") return runtime::FaultDomain::kTor;
  if (name == "wavelength") return runtime::FaultDomain::kWavelength;
  return std::nullopt;
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, TraceFormat format)
    : out_(&out), format_(format), csv_(out) {
  if (format_ == TraceFormat::kCsv) csv_.write_header(csv_columns());
}

void TraceWriter::write(const runtime::JobSpec& spec) {
  if (format_ == TraceFormat::kCsv) {
    csv_.write_row({format_double_exact(spec.arrival.value()),
                    participants_cell(spec.participants),
                    std::to_string(spec.payload.count()),
                    std::to_string(spec.requested_wavelengths),
                    std::to_string(spec.min_wavelengths),
                    std::to_string(spec.priority),
                    runtime::substrate_pin_name(spec.pin),
                    format_double_exact(spec.deadline.value()), spec.name});
    ++written_;
    return;
  }
  // JSONL: defaulted fields are omitted — at a million lines the savings
  // are real — and re-defaulted by the reader.
  std::string line = "{\"arrival\":" + format_double_exact(
                         spec.arrival.value());
  line += ",\"participants\":[";
  for (std::size_t i = 0; i < spec.participants.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(spec.participants[i]);
  }
  line += "],\"payload\":" + std::to_string(spec.payload.count());
  if (spec.requested_wavelengths != 0) {
    line += ",\"requested\":" + std::to_string(spec.requested_wavelengths);
  }
  if (spec.min_wavelengths != 1) {
    line += ",\"min\":" + std::to_string(spec.min_wavelengths);
  }
  if (spec.priority != 0) {
    line += ",\"priority\":" + std::to_string(spec.priority);
  }
  if (spec.pin != runtime::SubstratePin::kAny) {
    line += ",\"pin\":";
    line += obs::json_quote(runtime::substrate_pin_name(spec.pin));
  }
  // simlint-allow(float-eq): omission keys on the exact default bits
  if (spec.deadline.value() != 0.0) {
    line += ",\"deadline\":" + format_double_exact(spec.deadline.value());
  }
  if (!spec.name.empty()) {
    line += ",\"name\":" + obs::json_quote(spec.name);
  }
  line += "}\n";
  *out_ << line;
  ++written_;
}

TraceReader::TraceReader(std::istream& in, TraceFormat format)
    : in_(&in), format_(format) {
  if (format_ == TraceFormat::kCsv) {
    std::string header;
    std::getline(*in_, header);
    ++line_number_;
    if (!header.empty() && header.back() == '\r') header.pop_back();
    std::string expected;
    for (const std::string& column : csv_columns()) {
      if (!expected.empty()) expected += ',';
      expected += column;
    }
    WRHT_REQUIRE(header == expected,
                 "TraceReader: CSV header mismatch, got '" << header << "'");
  }
}

std::optional<runtime::JobSpec> TraceReader::next() {
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    ++read_;
    return format_ == TraceFormat::kJsonl
               ? spec_from_json(line, line_number_)
               : spec_from_csv(line, line_number_);
  }
  return std::nullopt;
}

std::uint64_t record_trace(runtime::JobSource& source, std::ostream& out,
                           TraceFormat format) {
  TraceWriter writer(out, format);
  while (std::optional<runtime::JobSpec> spec = source.next()) {
    writer.write(*spec);
  }
  return writer.written();
}

FaultTraceWriter::FaultTraceWriter(std::ostream& out) : out_(&out) {}

void FaultTraceWriter::write(const runtime::FaultSpec& fault) {
  std::string line = "{\"at\":" + format_double_exact(fault.at.value());
  line += ",\"domain\":";
  line += obs::json_quote(runtime::fault_domain_name(fault.domain));
  if (fault.subject != 0) {
    line += ",\"subject\":" + std::to_string(fault.subject);
  }
  // simlint-allow(float-eq): omission keys on the exact default bits
  if (fault.repair_after.value() != 0.0) {
    line += ",\"repair\":" + format_double_exact(fault.repair_after.value());
  }
  line += "}\n";
  *out_ << line;
  ++written_;
}

FaultTraceReader::FaultTraceReader(std::istream& in) : in_(&in) {}

std::optional<runtime::FaultSpec> FaultTraceReader::next() {
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const obs::JsonParseResult parsed = obs::json_parse(line);
    WRHT_REQUIRE(
        parsed.ok && parsed.value.kind == obs::JsonValue::Kind::kObject,
        "FaultTraceReader: line " << line_number_
                                  << " is not a JSON object: "
                                  << parsed.error);
    const obs::JsonValue& v = parsed.value;
    const obs::JsonValue* at = v.find("at");
    const obs::JsonValue* domain = v.find("domain");
    WRHT_REQUIRE(at && domain,
                 "FaultTraceReader: line " << line_number_
                                           << " is missing at / domain");
    runtime::FaultSpec fault;
    fault.at = util::Seconds(at->number);
    WRHT_REQUIRE(at->number >= last_at_,
                 "FaultTraceReader: line " << line_number_
                                           << " goes back in time");
    last_at_ = at->number;
    const std::optional<runtime::FaultDomain> parsed_domain =
        parse_fault_domain(domain->string);
    WRHT_REQUIRE(parsed_domain, "FaultTraceReader: line "
                                    << line_number_ << " names unknown domain '"
                                    << domain->string << "'");
    fault.domain = *parsed_domain;
    if (const obs::JsonValue* f = v.find("subject")) {
      fault.subject = static_cast<std::uint32_t>(f->number);
    }
    if (const obs::JsonValue* f = v.find("repair")) {
      fault.repair_after = util::Seconds(f->number);
    }
    ++read_;
    return fault;
  }
  return std::nullopt;
}

std::uint64_t record_fault_trace(runtime::FaultSource& source,
                                 std::ostream& out) {
  FaultTraceWriter writer(out);
  while (std::optional<runtime::FaultSpec> fault = source.next()) {
    writer.write(*fault);
  }
  return writer.written();
}

}  // namespace wrht::workload
