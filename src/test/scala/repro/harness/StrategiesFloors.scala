package repro.harness

import org.scalatest.Assertions._

/** The floors a strategy study must clear, asserted by `StrategiesSpec` on
  * every test run and by `StrategiesBench`, which also prints the report.
  */
object StrategiesFloors {

  /** The study's configuration: 20k nodes, average degree 15, 200 simulated workers. */
  val Cfg: StrategiesHarness.Config = StrategiesHarness.Config(nNodes = 20000, avgDeg = 15, numWorkers = 200)

  def check(r: StrategiesHarness.Result): Unit = {
    assert(r.pgRecordsCut > 10.0, s"partial-gather should cut shuffle records, got ${r.pgRecordsCut}%")
    // a combiner that keeps the record count but ships fatter records fails here
    assert(r.pgBytesCut >= 30.0, s"partial-gather should cut shuffle bytes, got ${r.pgBytesCut}%")
    // broadcast removes hub messages from the shuffle entirely
    assert(r.bcRecordsCut > 3.0 || r.bcBytesCut > 3.0,
      s"broadcast should cut shuffle IO: records ${r.bcRecordsCut}%, bytes ${r.bcBytesCut}%")
    assert(r.maxOutAfterSplit <= r.threshold,
      s"shadow-nodes must cap out-degree at the threshold: ${r.maxOutAfterSplit} > ${r.threshold}")
    assert(r.maxOut > r.maxOutAfterSplit, s"no hubs were split: max out-degree ${r.maxOut}")
  }
}
