package repro.jobs

import repro.SparkSpec

class JobSessionSpec extends SparkSpec {

  test("the SQL shuffle gets two partitions per core unless SPARK_SHUFFLE_PARTITIONS is set") {
    assert(JobSession.shufflePartitions(Map.empty, 4) == 8)
    assert(JobSession.shufflePartitions(Map("SPARK_MASTER" -> "local[2]"), 1) == 2)
    assert(JobSession.shufflePartitions(Map("SPARK_SHUFFLE_PARTITIONS" -> "64"), 4) == 64)
    assert(JobSession.shufflePartitions(Map("SPARK_SHUFFLE_PARTITIONS" -> "3"), 16) == 3)
  }

  test("the shared session is made with that rule") {
    val want = JobSession.shufflePartitions(sys.env, spark.sparkContext.defaultParallelism)
    assert(spark.conf.get("spark.sql.shuffle.partitions") == want.toString)
  }
}
