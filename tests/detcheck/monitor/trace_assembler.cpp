// Stage map: "ghost" is a span component that no tracer begin() site
// produces, so that stage never gets attributed.
const char* stage_of(const Span& span) {
  if (span.component == "ghost") return "recon";  // detcheck:expect event-vocab
  if (span.component == "hpc") return "recon";
  return "orchestrate";
}
