// The one tracer begin() site: produces span component "hpc".
void execute() {
  auto s = tracer.begin("hpc", "execute", 0);
}
