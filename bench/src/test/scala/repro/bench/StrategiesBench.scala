package repro.bench

import repro.SparkSpec
import repro.harness.StrategiesHarness
import repro.harness.StrategiesHarness.Config

/** Strategy studies (the numbers behind the paper's Figs. 9–13):
  * partial-gather must cut shuffle records and bytes on an in-skew graph; shadow-nodes
  * must cap the max out-degree at the threshold.
  */
class StrategiesBench extends SparkSpec {

  test("strategy IO study: partial-gather / broadcast / shadow-nodes") {
    val r = StrategiesHarness.run(spark, Config(nNodes = 20000, avgDeg = 15, numWorkers = 200))
    println("\n" + r.report + "\n")
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
