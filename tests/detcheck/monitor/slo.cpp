// default_slos selector table: the "queue_wait" selector matches no emit
// site, so the SLO it feeds can never fire.
void default_slos() {
  s.component = "net";
  s.kind = "delivery";
  s.component = "hpc";
  s.kind = "queue_wait";  // detcheck:expect event-vocab
}
